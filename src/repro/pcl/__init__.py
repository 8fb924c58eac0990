"""Pulse-Conserving Logic (PCL) substrate (paper Sec. II-B, Fig. 1f/g).

PCL is the AC-powered superconducting logic family the paper's compute blocks
are built in.  Key properties reproduced here:

* **Dual-rail encoding** — every logical signal is a pair of physical wires
  (positive and negative sense); logical inversion is a wire swap and costs
  no junctions and no delay.
* **Phase-synchronous operation** — each gate consumes one phase of the AC
  clock; all inputs of a gate must arrive in the same phase, which the EDA
  flow guarantees by inserting buffer (JTL) chains ("phase balancing").
* **Standard-cell library** — AND/OR pairs, 3-input OR/MAJ/AND, XOR and full
  adders built from them, plus splitters for fanout (an SFQ pulse drives a
  single load).

The :mod:`repro.eda` package drives designs through the RTL→PCL flow; this
package defines the cell library with per-cell JJ cost and area, netlist
structures, and a functional (boolean) simulator used to verify synthesized
designs.  Dual rail has no signal type of its own: a cell is priced as its
dual-rail implementation and evaluated on the positive rails, and
:mod:`repro.eda.dualrail` audits a netlist for the conversion.
"""

from repro.pcl.library import PCLCell, PCLLibrary, default_library
from repro.pcl.netlist import Instance, Net, Netlist, NetlistBuilder
from repro.pcl.simulate import simulate

__all__ = [
    "PCLCell",
    "PCLLibrary",
    "default_library",
    "Net",
    "Instance",
    "Netlist",
    "NetlistBuilder",
    "simulate",
]
