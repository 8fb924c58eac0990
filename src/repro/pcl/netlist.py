"""Gate-level netlist structures shared by the PCL library and the EDA flow.

A :class:`Netlist` is a flat directed graph: :class:`Net` objects connect the
single driver of a value to its readers, and :class:`Instance` objects bind
library cells to nets.  The representation is deliberately simple — it is the
interchange format between synthesis, dual-rail conversion, splitter
insertion, phase balancing and placement, mirroring the staged flow of the
paper's Fig. 1h.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Sequence

from repro.errors import NetlistError
from repro.pcl.library import PCLLibrary, DEFAULT_LIBRARY


@dataclass(frozen=True)
class Net:
    """A single wire (single-rail) or rail pair (dual-rail) in a netlist."""

    uid: int
    name: str

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Net({self.uid}, {self.name!r})"


@dataclass(frozen=True)
class Instance:
    """An instantiated cell: ``outputs = cell(inputs)``."""

    uid: int
    cell: str
    inputs: tuple[Net, ...]
    outputs: tuple[Net, ...]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        ins = ",".join(n.name for n in self.inputs)
        outs = ",".join(n.name for n in self.outputs)
        return f"Instance({self.cell}: {ins} -> {outs})"


@dataclass
class Netlist:
    """A flat gate-level netlist.

    Attributes
    ----------
    name:
        Design name.
    inputs / outputs:
        Primary ports, ordered.
    output_names:
        Port names for the outputs; kept separate from net names so
        netlist-rewriting passes (splitters, balancing) can replace output
        nets without losing the port identity.  Defaults to the net names.
    instances:
        Cell instances in insertion order (not necessarily topological).
    library:
        Cell library the instances refer to.
    """

    name: str
    inputs: list[Net] = field(default_factory=list)
    outputs: list[Net] = field(default_factory=list)
    instances: list[Instance] = field(default_factory=list)
    library: PCLLibrary = field(default_factory=lambda: DEFAULT_LIBRARY)
    output_names: list[str] = field(default_factory=list)
    #: Input buses that are *registered* (launched from local state, e.g. a
    #: MAC accumulator): their arrival phase is free, so the balancing pass
    #: aligns them to their consumers instead of buffering them from phase 0.
    free_input_buses: set[str] = field(default_factory=set)
    #: Memoized topological order plus the structural fingerprint it was
    #: computed against (see :meth:`topological_instances`).
    _topo_cache: tuple[Instance, ...] | None = field(
        default=None, init=False, repr=False, compare=False
    )
    _topo_fingerprint: tuple | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if not self.output_names:
            self.output_names = [net.name for net in self.outputs]
        if len(self.output_names) != len(self.outputs):
            raise NetlistError(
                f"{self.name}: {len(self.outputs)} outputs but "
                f"{len(self.output_names)} output names"
            )

    @staticmethod
    def bus_of(net_name: str) -> str:
        """Bus name of a port net: ``"acc[3]" -> "acc"``, ``"x" -> "x"``."""
        return net_name.split("[", 1)[0]

    # -- structural queries -------------------------------------------------
    def nets(self) -> list[Net]:
        """All nets referenced by ports or instances (deduplicated)."""
        seen: dict[int, Net] = {}
        for net in itertools.chain(self.inputs, self.outputs):
            seen[net.uid] = net
        for inst in self.instances:
            for net in itertools.chain(inst.inputs, inst.outputs):
                seen[net.uid] = net
        return list(seen.values())

    def driver_map(self) -> dict[int, Instance]:
        """Map net uid -> driving instance.  Primary inputs have no driver."""
        drivers: dict[int, Instance] = {}
        for inst in self.instances:
            for net in inst.outputs:
                if net.uid in drivers:
                    raise NetlistError(
                        f"net {net.name!r} driven by multiple instances in {self.name}"
                    )
                drivers[net.uid] = inst
        return drivers

    def fanout_map(self) -> dict[int, list[Instance]]:
        """Map net uid -> reading instances (primary outputs not included)."""
        readers: dict[int, list[Instance]] = defaultdict(list)
        for inst in self.instances:
            for net in inst.inputs:
                readers[net.uid].append(inst)
        return dict(readers)

    def fanout_count(self, net: Net) -> int:
        """Total fanout of ``net``: reading instances plus primary-output uses."""
        readers = self.fanout_map().get(net.uid, [])
        port_uses = sum(1 for out in self.outputs if out.uid == net.uid)
        return len(readers) + port_uses

    # -- integrity / ordering -------------------------------------------------
    def validate(self) -> None:
        """Check structural sanity: arities, single drivers, no combinational
        cycles, all instance inputs reachable from a driver or primary input."""
        input_ids = {net.uid for net in self.inputs}
        drivers = self.driver_map()
        for inst in self.instances:
            cell = self.library[inst.cell]
            if len(inst.inputs) != cell.n_inputs:
                raise NetlistError(
                    f"{self.name}: instance {inst.uid} of {inst.cell} has "
                    f"{len(inst.inputs)} inputs, cell wants {cell.n_inputs}"
                )
            if len(inst.outputs) != cell.n_outputs:
                raise NetlistError(
                    f"{self.name}: instance {inst.uid} of {inst.cell} has "
                    f"{len(inst.outputs)} outputs, cell wants {cell.n_outputs}"
                )
            for net in inst.inputs:
                if net.uid not in input_ids and net.uid not in drivers:
                    raise NetlistError(
                        f"{self.name}: net {net.name!r} read by instance "
                        f"{inst.uid} has no driver"
                    )
        for net in self.outputs:
            if net.uid not in input_ids and net.uid not in drivers:
                raise NetlistError(
                    f"{self.name}: primary output {net.name!r} has no driver"
                )
        # Topological sort doubles as the cycle check.
        self.topological_instances()

    def _structure_fingerprint(self) -> tuple:
        """Cheap structural identity for cache invalidation.

        Captures the instance list by object identity: Kahn's sort reads
        only the instances (a primary input has no driver, so adding one
        cannot change the order).  Any builder-style in-place mutation
        (append/remove/replace of instances) changes the fingerprint, and
        that is the only way the memo is invalidated; passes that construct
        whole new ``Netlist`` objects start with an empty cache anyway.  A
        replaced instance's ``id`` cannot be reused while the memo holds
        it.  O(n) to compute, but ~10× cheaper than re-running the sort
        with its dict building.
        """
        return (
            len(self.instances),
            tuple(id(inst) for inst in self.instances),
        )

    def topological_instances(self) -> list[Instance]:
        """Instances in topological (evaluation) order, memoized.

        Repeated calls on an unmutated netlist (e.g. exhaustive
        ``pcl.simulate()`` sweeps) return the cached order instead of
        re-running Kahn's sort; mutation is detected via a structural
        fingerprint.  Raises :class:`NetlistError` on combinational cycles.
        """
        fingerprint = self._structure_fingerprint()
        if self._topo_cache is not None and self._topo_fingerprint == fingerprint:
            return list(self._topo_cache)
        order = self._topological_sort()
        self._topo_cache = tuple(order)
        self._topo_fingerprint = fingerprint
        return order

    def _topological_sort(self) -> list[Instance]:
        """Kahn's algorithm over the instance graph (uncached)."""
        drivers = self.driver_map()
        indegree: dict[int, int] = {}
        dependents: dict[int, list[Instance]] = defaultdict(list)
        for inst in self.instances:
            count = 0
            for net in inst.inputs:
                driver = drivers.get(net.uid)
                if driver is not None:
                    count += 1
                    dependents[driver.uid].append(inst)
            indegree[inst.uid] = count
        ready = [inst for inst in self.instances if indegree[inst.uid] == 0]
        order: list[Instance] = []
        while ready:
            inst = ready.pop()
            order.append(inst)
            for dep in dependents.get(inst.uid, ()):  # each input edge counts
                indegree[dep.uid] -= 1
                if indegree[dep.uid] == 0:
                    ready.append(dep)
        if len(order) != len(self.instances):
            raise NetlistError(f"{self.name}: combinational cycle detected")
        return order

    # -- metrics ---------------------------------------------------------------
    def jj_count(self) -> int:
        """Total Josephson junctions across all instances."""
        return sum(self.library[inst.cell].jj_count for inst in self.instances)

    def cell_area(self) -> float:
        """Total standard-cell area in m²."""
        return sum(self.library[inst.cell].area for inst in self.instances)


class NetlistBuilder:
    """Incremental netlist constructor with unique net/instance ids.

    Synthesis generators (adders, multipliers, shifters, ...) use this to
    emit gates without worrying about bookkeeping:

    >>> b = NetlistBuilder('half_adder')
    >>> a, c = b.input('a'), b.input('b')
    >>> s = b.gate('xor2', a, c)
    >>> cy = b.gate('and2', a, c)
    >>> b.output('sum', s); b.output('carry', cy)
    >>> netlist = b.build()
    """

    def __init__(self, name: str, library: PCLLibrary | None = None) -> None:
        self.name = name
        self.library = library or DEFAULT_LIBRARY
        self._net_uid = itertools.count()
        self._inst_uid = itertools.count()
        self._inputs: list[Net] = []
        self._outputs: list[Net] = []
        self._output_names: list[str] = []
        self._instances: list[Instance] = []

    # -- net management -------------------------------------------------------
    def net(self, name: str | None = None) -> Net:
        """Create a fresh internal net."""
        uid = next(self._net_uid)
        return Net(uid=uid, name=name or f"n{uid}")

    def input(self, name: str) -> Net:
        """Declare a primary input and return its net."""
        net = self.net(name)
        self._inputs.append(net)
        return net

    def input_bus(self, name: str, width: int) -> list[Net]:
        """Declare ``width`` primary inputs ``name[0..width-1]`` (LSB first)."""
        return [self.input(f"{name}[{i}]") for i in range(width)]

    def output(self, name: str, net: Net) -> None:
        """Declare ``net`` as a primary output called ``name``."""
        self._outputs.append(net)
        self._output_names.append(name)

    def output_bus(self, name: str, nets: Sequence[Net]) -> None:
        """Declare a bus of primary outputs (LSB first)."""
        for i, net in enumerate(nets):
            self.output(f"{name}[{i}]", net)

    # -- gate emission -----------------------------------------------------------
    def gate(self, cell: str, *inputs: Net) -> Net:
        """Emit a single-output cell and return its output net."""
        outs = self.gate_multi(cell, *inputs)
        if len(outs) != 1:
            raise NetlistError(f"cell {cell} has {len(outs)} outputs; use gate_multi")
        return outs[0]

    def gate_multi(self, cell: str, *inputs: Net) -> tuple[Net, ...]:
        """Emit a cell with any number of outputs and return the output nets."""
        spec = self.library[cell]
        if len(inputs) != spec.n_inputs:
            raise NetlistError(
                f"cell {cell} expects {spec.n_inputs} inputs, got {len(inputs)}"
            )
        outputs = tuple(self.net() for _ in range(spec.n_outputs))
        inst = Instance(
            uid=next(self._inst_uid),
            cell=cell,
            inputs=tuple(inputs),
            outputs=outputs,
        )
        self._instances.append(inst)
        return outputs

    # -- convenience boolean helpers ----------------------------------------------
    def not_(self, a: Net) -> Net:
        return self.gate("inv", a)

    def and_(self, a: Net, b: Net) -> Net:
        return self.gate("and2", a, b)

    def or_(self, a: Net, b: Net) -> Net:
        return self.gate("or2", a, b)

    def xor_(self, a: Net, b: Net) -> Net:
        return self.gate("xor2", a, b)

    def mux(self, select: Net, if0: Net, if1: Net) -> Net:
        """2:1 multiplexer: returns ``if1`` when ``select`` else ``if0``."""
        return self.gate("mux2", select, if0, if1)

    def full_adder(self, a: Net, b: Net, cin: Net) -> tuple[Net, Net]:
        """Full adder; returns ``(sum, carry)``."""
        return self.gate_multi("fa", a, b, cin)

    def half_adder(self, a: Net, b: Net) -> tuple[Net, Net]:
        """Half adder; returns ``(sum, carry)``."""
        return self.gate_multi("ha", a, b)

    def build(self) -> Netlist:
        """Finalize, validate and return the netlist."""
        netlist = Netlist(
            name=self.name,
            inputs=list(self._inputs),
            outputs=list(self._outputs),
            instances=list(self._instances),
            library=self.library,
            output_names=list(self._output_names),
        )
        netlist.validate()
        return netlist


__all__ = ["Net", "Instance", "Netlist", "NetlistBuilder"]
