"""Functional (boolean) simulation of PCL netlists.

Used by the test-suite to verify that synthesized designs compute the right
function (e.g. the 8-bit adder really adds) and by the design database to
cross-check the MAC datapath.  The simulator operates at the logical level,
on the positive rails: each cell's negative rail is its DeMorgan dual, so
``neg == not pos`` holds by construction of the library's dual-rail cells,
and the dual-rail conversion pass checks that every instance maps to one.
"""

from __future__ import annotations

from typing import Mapping

from repro.errors import NetlistError
from repro.pcl.netlist import Netlist


def simulate(netlist: Netlist, inputs: Mapping[str, bool]) -> dict[str, bool]:
    """Evaluate ``netlist`` on named boolean inputs.

    Parameters
    ----------
    netlist:
        The design to evaluate (validated).
    inputs:
        Map from primary-input net name to boolean value.  Every primary
        input must be present.

    Returns
    -------
    Map from primary-output name (the net name) to boolean value.
    """
    values: dict[int, bool] = {}
    for net in netlist.inputs:
        if net.name not in inputs:
            raise NetlistError(f"missing value for primary input {net.name!r}")
        values[net.uid] = bool(inputs[net.name])
    unknown = set(inputs) - {net.name for net in netlist.inputs}
    if unknown:
        raise NetlistError(f"values supplied for unknown inputs: {sorted(unknown)}")

    for inst in netlist.topological_instances():
        cell = netlist.library[inst.cell]
        in_values = [values[net.uid] for net in inst.inputs]
        out_values = cell.evaluate(in_values)
        for net, val in zip(inst.outputs, out_values):
            values[net.uid] = val

    return {
        name: values[net.uid]
        for name, net in zip(netlist.output_names, netlist.outputs)
    }


def simulate_bus(
    netlist: Netlist, buses: Mapping[str, int], widths: Mapping[str, int]
) -> dict[str, int]:
    """Evaluate a netlist whose ports are integer buses.

    ``buses`` maps input bus names to integer values; ``widths`` maps the
    same names to bit widths.  Port bit ``k`` of bus ``x`` must be named
    ``x[k]`` (the convention of :class:`NetlistBuilder.input_bus`).  Output
    buses are discovered from the output-net names and returned as integers.

    >>> # result = simulate_bus(adder, {'a': 3, 'b': 5}, {'a': 8, 'b': 8})
    """
    input_names = {net.name for net in netlist.inputs}
    bit_inputs: dict[str, bool] = {}
    for name, value in buses.items():
        width = widths[name]
        if value < 0 or value >= (1 << width):
            raise NetlistError(
                f"value {value} does not fit in {width} bits for bus {name!r}"
            )
        if width == 1 and name in input_names:
            # Scalar ports are plain nets, not one-element buses.
            bit_inputs[name] = bool(value & 1)
            continue
        for k in range(width):
            bit_inputs[f"{name}[{k}]"] = bool((value >> k) & 1)

    raw = simulate(netlist, bit_inputs)

    outputs: dict[str, int] = {}
    for name, value in raw.items():
        if "[" in name and name.endswith("]"):
            bus, index_text = name[:-1].split("[", 1)
            index = int(index_text)
            outputs.setdefault(bus, 0)
            if value:
                outputs[bus] |= 1 << index
        else:
            outputs[name] = int(value)
    return outputs


__all__ = ["simulate", "simulate_bus"]
