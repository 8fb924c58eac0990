"""Single-to-dual-rail conversion (first PCL modification stage of Fig. 1h).

In PCL every logical net becomes a pair of physical wires, and every
inverter disappears into a rail swap.  The cells of
:mod:`repro.pcl.library` are already priced as dual-rail implementations
(they carry both the function and its DeMorgan dual), so this pass:

* verifies that every instance maps to a dual-rail cell,
* counts the inverters that fold away to zero junctions / zero delay,
* reports the physical wire count (2 × logical nets),

and returns the netlist unchanged structurally — the ``inv`` cells remain as
explicit zero-cost rail-swap markers so downstream passes and the functional
simulator keep exact semantics.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import NetlistError
from repro.pcl.netlist import Netlist


@dataclass(frozen=True)
class DualRailReport:
    """Outcome of the single-to-dual-rail conversion."""

    netlist: Netlist
    logical_nets: int
    physical_wires: int
    inversions_folded: int
    dual_rail_cells: int


def to_dual_rail(netlist: Netlist) -> DualRailReport:
    """Convert (and audit) a single-rail netlist for dual-rail implementation."""
    netlist.validate()
    inversions = 0
    cells = 0
    for inst in netlist.instances:
        cell = netlist.library[inst.cell]
        if inst.cell == "inv":
            if cell.jj_count != 0 or cell.depth != 0:
                raise NetlistError(
                    "dual-rail inverter must be free (rail swap); "
                    f"library prices it at {cell.jj_count} JJ / depth {cell.depth}"
                )
            inversions += 1
        else:
            cells += 1
    logical = len(netlist.nets())
    return DualRailReport(
        netlist=netlist,
        logical_nets=logical,
        physical_wires=2 * logical,
        inversions_folded=inversions,
        dual_rail_cells=cells,
    )


__all__ = ["DualRailReport", "to_dual_rail"]
