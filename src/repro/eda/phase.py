"""Phase assignment and balancing (PCL modification stage of Fig. 1h).

PCL is AC-powered: each cell consumes a fixed number of clock phases and all
inputs of a cell must arrive in the same phase.  This pass assigns a phase to
every net (primary inputs arrive in phase 0), then inserts buffer (JTL)
chains so every cell is phase-aligned and all primary outputs leave in the
same phase.

Delay chains are *shared*: when one net must be delayed by several different
lags for different sinks, a single chain is built to the maximum lag and the
intermediate taps feed the earlier sinks.  The resulting extra fanout on the
tap nodes is legalized afterwards by :mod:`repro.eda.splitter`, whose
splitters are phase-transparent — which is why the flow driver runs
balancing *before* splitter insertion (the commercial flow folds both into
its "phase matching" step).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from repro.errors import NetlistError
from repro.pcl.netlist import Instance, Net, Netlist


@dataclass(frozen=True)
class PhaseReport:
    """Outcome of phase balancing."""

    netlist: Netlist
    total_phases: int
    buffers_inserted: int
    buffer_jj: int


def net_phases(netlist: Netlist) -> dict[int, int]:
    """Compute the arrival phase of every net.

    Ordinary primary inputs arrive in phase 0.  Inputs belonging to a
    *registered* bus (``netlist.free_input_buses``) are launched from local
    state, so their arrival is retimed to the earliest phase any consumer
    fires in — they never need balancing buffers from phase 0.
    """
    phases: dict[int, int] = {net.uid: 0 for net in netlist.inputs}
    starts: dict[int, int] = {}
    for inst in netlist.topological_instances():
        cell = netlist.library[inst.cell]
        arrival = max((phases[n.uid] for n in inst.inputs), default=0)
        starts[inst.uid] = arrival
        for out in inst.outputs:
            phases[out.uid] = arrival + cell.depth

    if netlist.free_input_buses:
        sink_starts: dict[int, list[int]] = {}
        for inst in netlist.instances:
            for net in inst.inputs:
                sink_starts.setdefault(net.uid, []).append(starts[inst.uid])
        for net in netlist.inputs:
            if Netlist.bus_of(net.name) in netlist.free_input_buses:
                candidates = sink_starts.get(net.uid)
                if candidates:
                    # Raising the arrival up to min(start) never raises any
                    # consumer's firing phase, so the schedule stays valid.
                    phases[net.uid] = min(candidates)
    return phases


def balance_phases(netlist: Netlist) -> PhaseReport:
    """Insert shared buffer chains so every instance is phase-aligned.

    Returns a new netlist in which, for every instance, all input nets carry
    the same arrival phase, and all primary outputs leave in the same phase
    (checked by :func:`verify_phase_alignment`).
    """
    netlist.validate()
    library = netlist.library
    buf_cell = library["buf"]
    if buf_cell.depth != 1:
        raise NetlistError("phase balancing assumes a depth-1 buffer cell")

    phases = net_phases(netlist)

    # ---- pass 1: collect the lags each net must provide -------------------
    lags_needed: dict[int, set[int]] = {}

    def request(net: Net, lag: int) -> None:
        if lag > 0:
            lags_needed.setdefault(net.uid, set()).add(lag)

    instance_start: dict[int, int] = {}
    for inst in netlist.instances:
        start = max((phases[n.uid] for n in inst.inputs), default=0)
        instance_start[inst.uid] = start
        for net in inst.inputs:
            request(net, start - phases[net.uid])

    out_phases = [phases[n.uid] for n in netlist.outputs]
    total = max(out_phases, default=0)
    for net, phase in zip(netlist.outputs, out_phases):
        request(net, total - phase)

    # ---- pass 2: build one shared chain per net ------------------------------
    net_uid = itertools.count(max((n.uid for n in netlist.nets()), default=0) + 1)
    inst_uid = itertools.count(
        max((i.uid for i in netlist.instances), default=0) + 1
    )
    chain_instances: list[Instance] = []
    taps: dict[tuple[int, int], Net] = {}
    buffers = 0
    nets_by_uid = {n.uid: n for n in netlist.nets()}

    for uid, lags in lags_needed.items():
        source = nets_by_uid[uid]
        current = source
        for step in range(1, max(lags) + 1):
            out = Net(uid=next(net_uid), name=f"{source.name}_d{step}")
            chain_instances.append(
                Instance(
                    uid=next(inst_uid),
                    cell="buf",
                    inputs=(current,),
                    outputs=(out,),
                )
            )
            buffers += 1
            taps[(uid, step)] = out
            current = out

    def resolve(net: Net, lag: int) -> Net:
        return net if lag == 0 else taps[(net.uid, lag)]

    # ---- pass 3: rewire sinks to their taps -----------------------------------
    new_instances: list[Instance] = list(chain_instances)
    for inst in netlist.instances:
        start = instance_start[inst.uid]
        new_inputs = tuple(
            resolve(net, start - phases[net.uid]) for net in inst.inputs
        )
        new_instances.append(
            Instance(
                uid=inst.uid, cell=inst.cell, inputs=new_inputs, outputs=inst.outputs
            )
        )

    new_outputs = [
        resolve(net, total - phase)
        for net, phase in zip(netlist.outputs, out_phases)
    ]

    result = Netlist(
        name=netlist.name,
        inputs=list(netlist.inputs),
        outputs=new_outputs,
        instances=new_instances,
        library=library,
        output_names=list(netlist.output_names),
        free_input_buses=set(netlist.free_input_buses),
    )
    result.validate()
    return PhaseReport(
        netlist=result,
        total_phases=total,
        buffers_inserted=buffers,
        buffer_jj=buffers * library.buffer_jj,
    )


def verify_phase_alignment(netlist: Netlist) -> bool:
    """Check the balanced-phase invariant on every instance and the outputs."""
    phases = net_phases(netlist)
    for inst in netlist.instances:
        arrivals = {phases[n.uid] for n in inst.inputs}
        if len(arrivals) > 1:
            return False
    out_phases = {phases[n.uid] for n in netlist.outputs}
    return len(out_phases) <= 1


__all__ = ["PhaseReport", "net_phases", "balance_phases", "verify_phase_alignment"]
