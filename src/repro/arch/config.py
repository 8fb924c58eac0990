"""Declarative, serializable system construction.

Every experiment in the repo builds its systems from the same few recipes —
``build_blade(...).system().with_dram_bandwidth(...)``,
``build_gpu_system(n)``, ``build_multi_blade(n).system()`` — parameterized
by a handful of scalar knobs.  :class:`SystemConfig` captures exactly that
recipe space as a frozen, hashable, dict/JSON-round-trippable spec, so a
scenario (:mod:`repro.scenarios`) can carry "which system" as data instead
of code.

All knobs are plain numbers in the units the paper quotes (TBps, ns, KiB,
µs), so a serialized config reads like the figure captions.  ``None`` means
"leave the builder's baseline untouched".
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Any, Mapping

from repro.arch.system import SystemSpec
from repro.errors import ConfigError
from repro.units import KIB, NS, TBPS, US

#: Recognized system kinds.
SYSTEM_KINDS = ("scd_blade", "multi_blade", "gpu")


def scalar_dict(config: Any) -> dict[str, Any]:
    """The fields of a dataclass of scalars as a plain dict, values as
    they are: ``asdict`` would deep-copy each one."""
    return {f.name: getattr(config, f.name) for f in fields(config)}


@dataclass(frozen=True)
class SystemConfig:
    """A declarative system recipe the builders can replay.

    Parameters
    ----------
    kind:
        ``"scd_blade"`` (one blade of ``nx × ny`` SPUs), ``"multi_blade"``
        (``n_blades`` blades, inter-blade optical links) or ``"gpu"``
        (``n_gpus`` H100s).
    nx / ny / n_blades / n_gpus:
        Array dimensions per kind (ignored by the kinds they don't apply to).
    dram_bandwidth_tbps / dram_latency_ns:
        Per-accelerator main-memory overrides (the Fig. 5/7 sweep axes).
    l2_total_bytes / l2_jsram_dies / l2_policy:
        Blade shared-L2/JSRAM pool capacity — either directly in bytes or
        bottom-up as a die count
        (:meth:`~repro.memory.jsram.JSRAMDie.pool_capacity_bytes`; the two
        are mutually exclusive) — and the per-level memory policy ("dram"
        or "l2_kv_cache", the Sec. VI KV-cache and Sec. VII JSRAM-residency
        studies).
    dram_outstanding_kib:
        SCD bandwidth-delay-product budget (sensitivity knob).
    n_accelerators:
        Post-hoc ``with_n`` override (the L2 study's TP-sized subsystems).
    kernel_overhead_ns:
        Per-kernel dispatch overhead override on the built accelerator
        (``0`` is the optimistic end of the Sec. VI "2–4×" band).
    gpu_stream_low_ai / gpu_ib_alpha_us / gpu_kernel_launch_overhead_us:
        H100 calibration overrides (sensitivity knobs).
    """

    kind: str = "scd_blade"
    nx: int = 8
    ny: int = 8
    n_blades: int = 2
    n_gpus: int = 64
    dram_bandwidth_tbps: float | None = None
    dram_latency_ns: float | None = None
    l2_total_bytes: float | None = None
    l2_jsram_dies: int | None = None
    l2_policy: str = "dram"
    dram_outstanding_kib: float | None = None
    n_accelerators: int | None = None
    kernel_overhead_ns: float | None = None
    gpu_stream_low_ai: float | None = None
    gpu_ib_alpha_us: float | None = None
    gpu_kernel_launch_overhead_us: float | None = None

    def __post_init__(self) -> None:
        from repro.memory.cache import require_l2_policy

        if self.kind not in SYSTEM_KINDS:
            raise ConfigError(
                f"unknown system kind {self.kind!r}; expected one of "
                f"{SYSTEM_KINDS}"
            )
        require_l2_policy(self.l2_policy)
        if self.l2_total_bytes is not None and self.l2_jsram_dies is not None:
            raise ConfigError(
                "l2_total_bytes and l2_jsram_dies are two spellings of the "
                "same capacity knob; set at most one"
            )
        if self.kernel_overhead_ns is not None and self.kernel_overhead_ns < 0:
            raise ConfigError(
                f"kernel_overhead_ns must be >= 0, got {self.kernel_overhead_ns}"
            )

    # -- construction -------------------------------------------------------
    def build(self) -> SystemSpec:
        """Replay the recipe into a concrete :class:`SystemSpec`."""
        if self.kind == "gpu":
            system = self._build_gpu()
        else:
            system = self._build_blade_system()
        if self.dram_bandwidth_tbps is not None:
            system = system.with_dram_bandwidth(self.dram_bandwidth_tbps * TBPS)
        if self.dram_latency_ns is not None:
            system = system.with_dram_latency(self.dram_latency_ns * NS)
        if self.kernel_overhead_ns is not None:
            system = replace(
                system,
                accelerator=replace(
                    system.accelerator,
                    kernel_overhead=self.kernel_overhead_ns * NS,
                ),
            )
        if self.n_accelerators is not None:
            system = system.with_n(self.n_accelerators)
        return system

    def _build_blade_system(self) -> SystemSpec:
        from repro.arch.blade import build_blade
        from repro.arch.multi_blade import build_multi_blade

        kwargs: dict[str, Any] = {
            "nx": self.nx,
            "ny": self.ny,
            "l2_policy": self.l2_policy,
        }
        if self.l2_total_bytes is not None:
            kwargs["l2_total_bytes"] = self.l2_total_bytes
        elif self.l2_jsram_dies is not None:
            from repro.memory.jsram import JSRAMDie

            kwargs["l2_total_bytes"] = JSRAMDie().pool_capacity_bytes(
                self.l2_jsram_dies
            )
        blade = build_blade(**kwargs)
        if self.dram_outstanding_kib is not None:
            blade = replace(
                blade, dram_outstanding_bytes=self.dram_outstanding_kib * KIB
            )
        if self.kind == "multi_blade":
            return build_multi_blade(self.n_blades, blade=blade).system()
        return blade.system()

    def _build_gpu(self) -> SystemSpec:
        from repro.arch.gpu import H100Specs, build_gpu_system

        overrides: dict[str, Any] = {}
        if self.gpu_stream_low_ai is not None:
            overrides["stream_low_ai"] = self.gpu_stream_low_ai
        if self.gpu_ib_alpha_us is not None:
            overrides["ib_alpha"] = self.gpu_ib_alpha_us * US
        if self.gpu_kernel_launch_overhead_us is not None:
            overrides["kernel_launch_overhead"] = (
                self.gpu_kernel_launch_overhead_us * US
            )
        return build_gpu_system(self.n_gpus, H100Specs(**overrides))

    # -- serialization ------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        """Plain-dict form (JSON-ready; ``None`` fields included)."""
        return scalar_dict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SystemConfig":
        """Inverse of :meth:`to_dict`; unknown keys are a :class:`ConfigError`."""
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(
                f"unknown SystemConfig fields: {sorted(unknown)}"
            )
        return cls(**dict(data))

    def with_overrides(self, **overrides: Any) -> "SystemConfig":
        """Copy with the given fields replaced (sweep-axis application)."""
        return replace(self, **overrides)


#: The baseline systems most scenarios start from.
def scd_blade_config(dram_bandwidth_tbps: float | None = 16.0) -> SystemConfig:
    """The paper's 64-SPU blade at the headline 16 TBps per SPU."""
    return SystemConfig(kind="scd_blade", dram_bandwidth_tbps=dram_bandwidth_tbps)


def gpu_config(n_gpus: int = 64) -> SystemConfig:
    """The contemporary-GPU reference cluster."""
    return SystemConfig(kind="gpu", n_gpus=n_gpus)


__all__ = [
    "SYSTEM_KINDS",
    "SystemConfig",
    "scalar_dict",
    "scd_blade_config",
    "gpu_config",
]
