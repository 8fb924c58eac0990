"""Table generators: Fig. 2b (datalink), Fig. 3c (blade spec) and Fig. 1's
PCL flow.  Table I is :func:`repro.tech.table.technology_comparison_table`."""

from __future__ import annotations

from repro.arch.blade import SCDBlade, build_blade
from repro.interconnect.datalink import DatalinkSpec, baseline_datalink


def datalink_table(spec: DatalinkSpec | None = None) -> list[tuple[str, str, str]]:
    """Render Fig. 2b's datalink specification rows (parameter, down, up)."""
    spec = spec or baseline_datalink()
    down, up = spec.downlink, spec.uplink
    return [
        ("Wire Width", f"{down.wire_width * 1e6:.1f}um", f"{up.wire_width * 1e6:.0f}um"),
        (
            "Wire Thickness",
            f"{down.wire_thickness * 1e6:.1f}um",
            f"{up.wire_thickness * 1e6:.1f}um",
        ),
        ("Wire Pitch", f"{down.wire_pitch * 1e6:.0f}um", f"{up.wire_pitch * 1e6:.0f}um"),
        (
            "Wire Length",
            f"{down.cu_length * 1e3:.0f}mm (Cu) + {down.nbtin_length * 1e3:.0f}mm (NbTiN)",
            f"{up.cu_length * 1e3:.0f}mm (Cu) + {up.nbtin_length * 1e3:.0f}mm (NbTiN)",
        ),
        (
            "Byte Rate",
            f"{down.byte_rate_per_wire / 1e9:.0f} GB/s",
            f"{up.byte_rate_per_wire / 1e9:.0f} GB/s",
        ),
        ("No. of wires", f"{down.n_wires:,}", f"{up.n_wires:,}"),
        ("Required ML", str(down.metal_layers), str(up.metal_layers)),
        (
            "Bandwidth",
            f"{down.bandwidth / 1e12:.0f} TBps",
            f"{up.bandwidth / 1e12:.0f} TBps",
        ),
    ]


def blade_spec_table(blade: SCDBlade | None = None) -> list[tuple[str, str]]:
    """Render Fig. 3c's baseline blade specification rows."""
    blade = blade or build_blade()
    return blade.spec_rows()


#: Column headers matching each table generator's row shape (shared by the
#: scenario renderer and the examples so they cannot drift apart).
DATALINK_HEADERS = ("Parameter", "Downlink", "Uplink")
BLADE_SPEC_HEADERS = ("Parameter", "Baseline Value")
PCL_FLOW_HEADERS = ("design", "datapath JJ", "total JJ", "phases", "area mm2")


def pcl_flow_table(reports=None) -> list[tuple[str, str, str, str, str]]:
    """Run the design database through the EDA flow; one row per design.

    The Fig. 1 logic-layer story in table form: (design, datapath JJ,
    total JJ, pipeline phases, area mm²) for every entry in
    :data:`repro.eda.designs.DESIGN_DATABASE`.  Pass a ``{name: FlowReport}``
    mapping to table-ize already-run flows instead of re-running them.
    """
    from repro.eda import designs, run_flow

    if reports is None:
        reports = {
            name: run_flow(generator())
            for name, generator in designs.DESIGN_DATABASE.items()
        }
    rows: list[tuple[str, str, str, str, str]] = []
    for name, report in reports.items():
        rows.append(
            (
                name,
                str(report.datapath_jj),
                str(report.total_jj),
                str(report.pipeline_depth),
                f"{report.area / 1e-6:.4f}",
            )
        )
    return rows


def render_columns(
    rows: list[tuple[str, ...]], headers: tuple[str, ...]
) -> str:
    """Fixed-width rendering of uniform-arity string rows."""
    widths = [
        max([len(headers[i]), *(len(row[i]) for row in rows)])
        for i in range(len(headers))
    ]
    sep = "+-" + "-+-".join("-" * w for w in widths) + "-+"
    def line(cells: tuple[str, ...]) -> str:
        return "| " + " | ".join(c.ljust(w) for c, w in zip(cells, widths)) + " |"
    out = [sep, line(headers), sep]
    out.extend(line(row) for row in rows)
    out.append(sep)
    return "\n".join(out)


def render_two_column(rows: list[tuple[str, str]], headers: tuple[str, str]) -> str:
    """Fixed-width rendering of (parameter, value) rows."""
    return render_columns(rows, headers)


__all__ = [
    "datalink_table",
    "blade_spec_table",
    "pcl_flow_table",
    "DATALINK_HEADERS",
    "BLADE_SPEC_HEADERS",
    "PCL_FLOW_HEADERS",
    "render_columns",
    "render_two_column",
]
