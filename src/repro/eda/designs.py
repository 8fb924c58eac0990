"""The paper's design database (Fig. 1h): parameterized RTL generators.

"Adder8, Crossbar, Shift Register, Register File, Multiplier, ALU, MAC, ..."
— each generator below returns an :class:`~repro.eda.rtl.RTLModule` (or a
gate netlist for the sequential blocks) ready for :func:`repro.eda.flow.run_flow`.

The headline design is :func:`mac_bf16`: the paper's bf16 multiply-accumulate
("8-bit add, 8-bit multiply and 32-bit accumulate", ~8k JJs) that the
high-throughput compute core is tiled from.
"""

from __future__ import annotations

from repro.eda.rtl import RTLModule
from repro.errors import ConfigError
from repro.pcl.netlist import Netlist, NetlistBuilder


def adder(width: int = 8) -> RTLModule:
    """Unsigned ripple-carry adder: ``sum = a + b`` with carry out."""
    if width <= 0:
        raise ConfigError("adder width must be positive")
    m = RTLModule(f"adder{width}")
    a = m.input("a", width)
    b = m.input("b", width)
    m.output("sum", m.add(a, b))
    return m


def subtractor(width: int = 8) -> RTLModule:
    """Unsigned two's-complement subtractor: ``diff = a - b`` (mod 2^width)."""
    m = RTLModule(f"subtractor{width}")
    a = m.input("a", width)
    b = m.input("b", width)
    m.output("diff", m.sub(a, b))
    return m


def multiplier(width: int = 8) -> RTLModule:
    """Unsigned Wallace-tree multiplier: ``product = a * b`` (2·width bits)."""
    if width <= 0:
        raise ConfigError("multiplier width must be positive")
    m = RTLModule(f"multiplier{width}")
    a = m.input("a", width)
    b = m.input("b", width)
    m.output("product", m.mul(a, b))
    return m


def barrel_shifter(width: int = 32) -> RTLModule:
    """Dynamic left barrel shifter with ``ceil(log2(width))`` select bits."""
    if width <= 1:
        raise ConfigError("barrel shifter width must be > 1")
    select_bits = max(1, (width - 1).bit_length())
    m = RTLModule(f"shifter{width}l")
    a = m.input("a", width)
    amount = m.input("amount", select_bits)
    m.output("out", m.shl_dyn(a, amount))
    return m


def comparator(width: int = 8) -> RTLModule:
    """Equality + unsigned less-than comparator."""
    m = RTLModule(f"comparator{width}")
    a = m.input("a", width)
    b = m.input("b", width)
    m.output("eq", m.eq(a, b))
    m.output("lt", m.lt(a, b))
    return m


def alu(width: int = 8) -> RTLModule:
    """A small ALU: op ∈ {ADD=0, SUB=1, AND=2, OR=3} selected by 2-bit ``op``.

    The result is ``width`` bits (the add carry is truncated, as usual for an
    ALU datapath); a ``zero`` flag is also produced.
    """
    m = RTLModule(f"alu{width}")
    a = m.input("a", width)
    b = m.input("b", width)
    op = m.input("op", 2)

    add = m.slice_(m.add(a, b), 0, width - 1)
    sub = m.sub(a, b)
    conj = m.and_(a, b)
    disj = m.or_(a, b)

    op0 = m.slice_(op, 0, 0)
    op1 = m.slice_(op, 1, 1)
    arith = m.mux(op0, add, sub)
    logic = m.mux(op0, conj, disj)
    result = m.mux(op1, arith, logic)
    m.output("result", result)
    m.output("zero", m.not_(m.reduce_or(result)))
    return m


def mac_bf16() -> Netlist:
    """The paper's bf16 MAC: 8-bit multiply, 8-bit exponent add, 32-bit accumulate.

    bf16 splits into sign(1)/exponent(8)/mantissa(7); with the hidden bit the
    significand product is an 8×8 multiply.  The datapath follows the paper's
    block recipe ("8-bit add, 8-bit multiply and 32 bit accumulate") in the
    style of a high-throughput systolic MAC rather than full IEEE-754
    semantics (rounding/specials live outside the MAC array):

    * 8×8 significand multiply kept in **carry-save** form (Wallace tree, no
      carry propagation in the inner loop),
    * 8-bit exponent add,
    * alignment of both product rows into the 32-bit accumulator window via a
      dynamic barrel shift on the low exponent bits,
    * 4:2 compression into the carry-save 32-bit accumulator (``acc_s`` +
      ``acc_c``, a *registered* feedback pair — resolved once per dot product
      by a separate ``adder32``),
    * sign processing.

    The functional contract, verified by the test-suite on the fully
    legalized netlist, is::

        out_s + out_c == acc_s + acc_c + ((man_a*man_b) << (exp & 0xF))  (mod 2^32)

    Synthesized through the flow this lands near the paper's ~8 kJJ.
    """
    b = NetlistBuilder("mac_bf16")
    from repro.eda.synthesis import GateEmitter, _library_with_constants

    b.library = _library_with_constants(b.library)
    emit = GateEmitter(b)

    man_a = b.input_bus("man_a", 8)
    man_b = b.input_bus("man_b", 8)
    exp_a = b.input_bus("exp_a", 8)
    exp_b = b.input_bus("exp_b", 8)
    sign_a = b.input("sign_a")
    sign_b = b.input("sign_b")
    acc_s = b.input_bus("acc_s", 32)
    acc_c = b.input_bus("acc_c", 32)

    # Significand product, redundant form (two 16-bit rows).
    row_s, row_c = emit.multiply_carry_save(man_a, man_b)

    # Exponent path: 8-bit add (the paper's "8-bit add").
    exp_sum, exp_carry = emit.ripple_add(exp_a, exp_b)

    # Alignment into the 32-bit window by the low exponent bits (0..15).
    shift_sel = exp_sum[:4]
    widened_s = row_s + [False] * 16
    widened_c = row_c + [False] * 16
    aligned_s = emit.barrel_shift(widened_s, shift_sel)
    aligned_c = emit.barrel_shift(widened_c, shift_sel)

    # 4:2 compression with the registered carry-save accumulator.
    stage1: list = []
    carry1: list = [False]
    for i in range(32):
        s, c = emit.full_add(aligned_s[i], aligned_c[i], acc_s[i])
        stage1.append(s)
        carry1.append(c)
    out_s: list = []
    carry2: list = [False]
    for i in range(32):
        s, c = emit.full_add(stage1[i], carry1[i], acc_c[i])
        out_s.append(s)
        carry2.append(c)
    out_c = carry2[:32]  # modulo 2^32: the top carry drops

    b.output_bus("out_s", [emit.materialize(bit) for bit in out_s])
    b.output_bus("out_c", [emit.materialize(bit) for bit in out_c])
    b.output_bus(
        "exp_out", [emit.materialize(bit) for bit in exp_sum + [exp_carry]]
    )
    b.output("sign_out", emit.materialize(emit.xor_(sign_a, sign_b)))

    netlist = b.build()
    netlist.free_input_buses = {"acc_s", "acc_c"}
    return netlist


def crossbar(n_ports: int = 4, width: int = 8) -> RTLModule:
    """An ``n×n`` crossbar: each output port selects any input via binary select.

    This is the paper's switch cross-point building block ("superconducting
    MUX based cross-point unit", Sec. III).
    """
    if n_ports < 2 or n_ports & (n_ports - 1):
        raise ConfigError("crossbar n_ports must be a power of two >= 2")
    select_bits = (n_ports - 1).bit_length()
    m = RTLModule(f"crossbar{n_ports}x{n_ports}w{width}")
    inputs = [m.input(f"in{i}", width) for i in range(n_ports)]
    for j in range(n_ports):
        select = m.input(f"sel{j}", select_bits)
        # Binary mux tree over the inputs.
        layer = inputs
        for bit in range(select_bits):
            s = m.slice_(select, bit, bit)
            layer = [
                m.mux(s, layer[2 * k], layer[2 * k + 1])
                for k in range(len(layer) // 2)
            ]
        m.output(f"out{j}", layer[0])
    return m


def shift_register(width: int = 8, depth: int = 8) -> Netlist:
    """A ``depth``-stage shift register, ``width`` bits wide (DFF chain).

    Sequential: returned as a gate netlist directly (the RTL IR is
    combinational).  The functional model treats each DFF as a transparent
    stage, which is exactly its steady-state behaviour after ``depth`` cycles.
    """
    if width <= 0 or depth <= 0:
        raise ConfigError("shift register width/depth must be positive")
    b = NetlistBuilder(f"shiftreg{width}x{depth}")
    data = b.input_bus("d", width)
    for _stage in range(depth):
        data = [b.gate("dff", bit) for bit in data]
    b.output_bus("q", data)
    return b.build()


def register_file(
    n_registers: int = 8, width: int = 8, read_ports: int = 2
) -> Netlist:
    """A small register file: DFF array + write decoder + read-port mux trees.

    The JSRAM-based register files of the SPU are modelled at the memory
    layer; this gate-level version exists to exercise the flow on a
    storage-heavy block (the paper's design database lists "Register File").
    """
    if n_registers < 2 or n_registers & (n_registers - 1):
        raise ConfigError("n_registers must be a power of two >= 2")
    addr_bits = (n_registers - 1).bit_length()
    b = NetlistBuilder(f"regfile{n_registers}x{width}r{read_ports}")

    write_data = b.input_bus("wdata", width)
    write_addr = b.input_bus("waddr", addr_bits)
    write_enable = b.input("wen")

    # Write decoder: one-hot enable per register.
    enables = []
    for r in range(n_registers):
        term = write_enable
        for bit in range(addr_bits):
            addr_bit = write_addr[bit]
            if (r >> bit) & 1:
                term = b.and_(term, addr_bit)
            else:
                term = b.and_(term, b.not_(addr_bit))
        enables.append(term)

    # Storage: write-enabled DFF per bit (mux holds old value -> modelled as
    # enable-gated data; the hold path is implicit in the DFF cell).
    registers: list[list] = []
    for r in range(n_registers):
        row = []
        for k in range(width):
            gated = b.and_(enables[r], write_data[k])
            row.append(b.gate("dff", gated))
        registers.append(row)

    # Read ports: binary mux tree per port and bit.
    for port in range(read_ports):
        raddr = b.input_bus(f"raddr{port}", addr_bits)
        out_bits = []
        for k in range(width):
            layer = [registers[r][k] for r in range(n_registers)]
            for bit in range(addr_bits):
                s = raddr[bit]
                layer = [
                    b.mux(s, layer[2 * i], layer[2 * i + 1])
                    for i in range(len(layer) // 2)
                ]
            out_bits.append(layer[0])
        b.output_bus(f"rdata{port}", out_bits)
    return b.build()


#: Names of every design in the database, for iteration in tests/benchmarks.
DESIGN_DATABASE = {
    "adder8": lambda: adder(8),
    "adder32": lambda: adder(32),
    "subtractor8": lambda: subtractor(8),
    "multiplier8": lambda: multiplier(8),
    "shifter32": lambda: barrel_shifter(32),
    "comparator8": lambda: comparator(8),
    "alu8": lambda: alu(8),
    "mac_bf16": mac_bf16,
    "crossbar4x4": lambda: crossbar(4, 8),
    "shiftreg8x8": lambda: shift_register(8, 8),
    "regfile8x8": lambda: register_file(8, 8),
}

__all__ = [
    "adder",
    "subtractor",
    "multiplier",
    "barrel_shifter",
    "comparator",
    "alu",
    "mac_bf16",
    "crossbar",
    "shift_register",
    "register_file",
    "DESIGN_DATABASE",
]
