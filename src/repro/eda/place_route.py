"""Levelized placement and wire estimation (final stage of Fig. 1h).

The paper uses a commercial place-and-route tool that routes wires to a
*target inductance* (PCL signal wires are inductance-engineered transmission
lines).  We reproduce the planning-level part: a levelized grid placement —
cells arranged in columns by phase — Manhattan wirelength estimation, and
per-wire inductance from the technology's inductance per length.  The output
feeds the architecture layer (area, utilization) and sanity-checks that the
design closes at the 30 GHz clock.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.eda.phase import net_phases
from repro.pcl.netlist import Netlist
from repro.tech.interconnect import NBTIN_M1, TransmissionLine
from repro.units import UM


@dataclass(frozen=True)
class PlacementReport:
    """Geometry and wiring summary of a placed design."""

    netlist: Netlist
    die_width: float
    die_height: float
    cell_area: float
    placed_area: float
    utilization: float
    total_wirelength: float
    average_wirelength: float
    max_wirelength: float
    average_inductance: float
    max_inductance: float
    positions: dict[int, tuple[float, float]] = field(repr=False, default_factory=dict)


def place_and_route(
    netlist: Netlist,
    utilization: float = 0.5,
    row_pitch: float = 5 * UM,
    wire: TransmissionLine = NBTIN_M1,
) -> PlacementReport:
    """Place cells on a phase-levelized grid and estimate wiring.

    Parameters
    ----------
    netlist:
        Balanced netlist (any valid netlist is accepted).
    utilization:
        Cell-area utilization of the placed region (0 < u <= 1).
    row_pitch:
        Vertical pitch between phase columns, metres.
    wire:
        Technology wire used for inductance estimates.
    """
    if not 0 < utilization <= 1:
        raise ValueError(f"utilization must be in (0, 1], got {utilization}")
    netlist.validate()
    phases = net_phases(netlist)

    # Group instances by the phase in which they fire.
    by_phase: dict[int, list] = {}
    for inst in netlist.instances:
        start = max((phases[n.uid] for n in inst.inputs), default=0)
        by_phase.setdefault(start, []).append(inst)

    n_phases = (max(by_phase) + 1) if by_phase else 1
    max_per_column = max((len(v) for v in by_phase.values()), default=1)
    cell_pitch = row_pitch

    positions: dict[int, tuple[float, float]] = {}
    for phase, instances in by_phase.items():
        for row, inst in enumerate(sorted(instances, key=lambda i: i.uid)):
            positions[inst.uid] = (phase * cell_pitch, row * cell_pitch)

    # Wire lengths: Manhattan distance driver -> sink positions.
    driver_of: dict[int, int] = {}
    for inst in netlist.instances:
        for out in inst.outputs:
            driver_of[out.uid] = inst.uid

    lengths: list[float] = []
    for inst in netlist.instances:
        for net in inst.inputs:
            src = driver_of.get(net.uid)
            if src is None:
                continue  # primary input; pad location not modelled
            x0, y0 = positions[src]
            x1, y1 = positions[inst.uid]
            lengths.append(abs(x1 - x0) + abs(y1 - y0))

    cell_area = netlist.cell_area()
    placed_area = cell_area / utilization if cell_area > 0 else 0.0
    die_width = n_phases * cell_pitch
    die_height = max(max_per_column, 1) * cell_pitch

    total_len = sum(lengths)
    avg_len = total_len / len(lengths) if lengths else 0.0
    max_len = max(lengths, default=0.0)
    return PlacementReport(
        netlist=netlist,
        die_width=die_width,
        die_height=die_height,
        cell_area=cell_area,
        placed_area=placed_area,
        utilization=utilization,
        total_wirelength=total_len,
        average_wirelength=avg_len,
        max_wirelength=max_len,
        average_inductance=avg_len * wire.inductance_per_length,
        max_inductance=max_len * wire.inductance_per_length,
        positions=positions,
    )


__all__ = ["PlacementReport", "place_and_route"]
