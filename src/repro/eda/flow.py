"""End-to-end RTL→PCL flow driver (paper Fig. 1h).

``run_flow`` takes an :class:`~repro.eda.rtl.RTLModule` (or an already
synthesized netlist) and applies the full staged flow:

1. synthesis into the gate library,
2. single-to-dual-rail conversion,
3. splitter insertion,
4. phase assignment and balancing,
5. levelized placement with inductance-aware wire estimates.

The resulting :class:`FlowReport` carries the per-stage junction breakdown
the architecture layer consumes (e.g. the ~8 kJJ bf16 MAC of Sec. III).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.eda.dualrail import DualRailReport, to_dual_rail
from repro.eda.phase import PhaseReport, balance_phases, verify_phase_alignment
from repro.eda.place_route import PlacementReport, place_and_route
from repro.eda.rtl import RTLModule
from repro.eda.splitter import SplitterReport, insert_splitters
from repro.eda.synthesis import synthesize
from repro.errors import SynthesisError
from repro.pcl.netlist import Netlist


@dataclass(frozen=True)
class FlowReport:
    """Results of the full RTL→PCL flow for one design."""

    name: str
    netlist: Netlist
    dual_rail: DualRailReport
    splitters: SplitterReport
    phases: PhaseReport
    placement: PlacementReport
    logic_jj: int
    splitter_jj: int
    buffer_jj: int

    @property
    def total_jj(self) -> int:
        """Total junction count including fanout and balancing overhead."""
        return self.logic_jj + self.splitter_jj + self.buffer_jj

    @property
    def datapath_jj(self) -> int:
        """Junctions in the datapath proper: logic cells plus splitters.

        Phase-balancing buffers are excluded: when a block is tiled into a
        systolic array (the paper's MAC array), operands arrive pre-skewed by
        the array schedule and the standalone-block balancing chains largely
        disappear.  The paper's "~8k JJs" MAC figure corresponds to this
        datapath count.
        """
        return self.logic_jj + self.splitter_jj

    @property
    def pipeline_depth(self) -> int:
        """Pipeline depth of the block in AC phases."""
        return self.phases.total_phases

    @property
    def area(self) -> float:
        """Placed area in m²."""
        return self.placement.placed_area


def run_flow(design: RTLModule | Netlist) -> FlowReport:
    """Run the staged RTL→PCL flow and return its report.

    The functional semantics of the design are preserved across every stage
    (splitters and buffers are logically transparent), which the test-suite
    exploits by simulating the *final* netlist against reference arithmetic.
    """
    if isinstance(design, RTLModule):
        netlist = synthesize(design)
    elif isinstance(design, Netlist):
        netlist = design
        netlist.validate()
    else:
        raise SynthesisError(f"cannot run flow on {type(design).__name__}")

    logic_jj = netlist.jj_count()
    dual_rail = to_dual_rail(netlist)
    # Balancing runs before splitter insertion so delay chains can be shared
    # through taps (the commercial flow folds both into "phase matching");
    # splitters are phase-transparent, so alignment survives legalization.
    phase_report = balance_phases(dual_rail.netlist)
    split_report = insert_splitters(phase_report.netlist)
    if not verify_phase_alignment(split_report.netlist):
        raise SynthesisError(f"{netlist.name}: phase balancing failed to converge")
    placement = place_and_route(split_report.netlist)

    return FlowReport(
        name=netlist.name,
        netlist=split_report.netlist,
        dual_rail=dual_rail,
        splitters=split_report,
        phases=phase_report,
        placement=placement,
        logic_jj=logic_jj,
        splitter_jj=split_report.splitter_jj,
        buffer_jj=phase_report.buffer_jj,
    )


__all__ = ["FlowReport", "run_flow"]
