"""Custom EDA flow for PCL ("Starling", paper Fig. 1h).

The paper's RTL→GDS flow is: off-the-shelf synthesis into an AND/OR-class
gate library, followed by a PCL-specific modification stage — single-to-dual
rail conversion, splitter insertion and phase assignment/balancing — then
inductance-aware place and route.  This package reproduces that staged flow:

``rtl``        word-level structural IR (the flow's entry point)
``synthesis``  lowering of word-level ops into the gate library
``dualrail``   single-to-dual-rail conversion (inverters fold into rail swaps)
``splitter``   fanout legalization with splitter trees
``phase``      phase assignment + balancing-buffer insertion
``place_route``levelized grid placement and wirelength/inductance estimates
``flow``       end-to-end driver producing a :class:`FlowReport`
``designs``    the paper's design database (adder8, multiplier, MAC, ALU,
               crossbar, shift register, register file)
"""

from repro.eda.rtl import RTLModule, Signal
from repro.eda.synthesis import synthesize
from repro.eda.dualrail import DualRailReport, to_dual_rail
from repro.eda.splitter import SplitterReport, insert_splitters
from repro.eda.phase import PhaseReport, balance_phases
from repro.eda.place_route import PlacementReport, place_and_route
from repro.eda.flow import FlowReport, run_flow
from repro.eda import designs

__all__ = [
    "RTLModule",
    "Signal",
    "synthesize",
    "to_dual_rail",
    "DualRailReport",
    "insert_splitters",
    "SplitterReport",
    "balance_phases",
    "PhaseReport",
    "place_and_route",
    "PlacementReport",
    "run_flow",
    "FlowReport",
    "designs",
]
