"""SPU/SNU/blade assembly tests: the Fig. 3c derivation chain."""

from __future__ import annotations

import dataclasses
import enum

import pytest

from repro.arch.blade import build_blade
from repro.arch.snu import build_snu, build_snu_group, shared_l2_spec
from repro.arch.spu import build_spu
from repro.errors import ConfigError
from repro.units import GB, TBPS


class TestSPU:
    def test_baseline_l1_is_24mb(self):
        spu = build_spu()
        assert spu.l1_dcache.capacity_bytes == pytest.approx(24e6, rel=0.01)

    def test_l1_capacity_override(self):
        spu = build_spu(l1_capacity_bytes=48e6)
        assert spu.n_l1_dies == 8

    def test_die_stack_count(self):
        # compute + control/switch base + HP + 4 HD = 7 dies.
        assert build_spu().n_dies == 7

    def test_total_jj_dominated_by_known_parts(self):
        spu = build_spu()
        assert spu.total_jj > spu.compute.mac_count * spu.compute.mac_jj


class TestSNU:
    def test_snu_group_capacity(self):
        snus = build_snu_group(3.375 * GB, 16)
        assert len(snus) == 16
        total = sum(s.l2_capacity_bytes for s in snus)
        assert total == pytest.approx(3.375e9)

    def test_snu_die_count_derived(self):
        snu = build_snu()
        assert snu.n_l2_dies >= 1
        assert snu.n_l2_dies * snu.l2_die.capacity_bytes >= snu.l2_capacity_bytes

    def test_shared_l2_spec(self):
        spec = shared_l2_spec()
        assert spec.shared
        assert spec.capacity_bytes == pytest.approx(3.375e9)


class TestBlade:
    def test_baseline_rows(self, blade):
        rows = dict(blade.spec_rows())
        assert rows["No. of SPUs"] == "64 (8 x 8)"
        assert "2.46" in rows["Peak compute throughput per SPU"] or "2.45" in rows[
            "Peak compute throughput per SPU"
        ]

    def test_bandwidth_is_min_of_datalink_and_dram(self, blade):
        assert blade.main_memory_bandwidth == pytest.approx(
            min(
                blade.datalink.bidirectional_bandwidth,
                blade.dram.internal_bandwidth,
            )
        )

    def test_dram_bandwidth_per_spu(self, blade):
        assert blade.dram_bandwidth_per_spu == pytest.approx(30e12 / 64, rel=0.01)

    def test_fabric_reduction_latency(self, blade):
        from repro.interconnect.collectives import all_reduce_time

        fabric = blade.fabric()
        tiny = all_reduce_time(fabric, 1.0, 64)
        assert tiny == pytest.approx(60e-9, rel=0.02)

    def test_main_hierarchy_has_no_l2(self, blade):
        assert blade.hierarchy().names == ("L1", "DRAM")

    def test_l2_policy_adds_level(self):
        blade = build_blade(l2_policy="l2_kv_cache", l2_total_bytes=4.19 * GB)
        hierarchy = blade.hierarchy()
        assert hierarchy.names == ("L1", "L2", "DRAM")
        assert hierarchy["L2"].capacity_bytes == pytest.approx(4.19e9)

    def test_system_view(self, scd_system):
        assert scd_system.n_accelerators == 64
        assert scd_system.accelerator.name == "SPU"
        assert scd_system.accelerator.memory_capacity_bytes == pytest.approx(
            2.048e12 / 64
        )

    def test_custom_array_size(self):
        blade = build_blade(nx=4, ny=4)
        assert blade.n_spus == 16
        # Shared memory pool splits among fewer SPUs.
        assert blade.dram_bandwidth_per_spu == pytest.approx(30e12 / 16, rel=0.01)


def _parts(value, path="blade"):
    """Every object a blade reaches through dataclass fields and tuples,
    with the path to it."""
    yield path, value
    if dataclasses.is_dataclass(value):
        for f in dataclasses.fields(value):
            yield from _parts(getattr(value, f.name), f"{path}.{f.name}")
    elif isinstance(value, tuple):
        for i, item in enumerate(value):
            yield from _parts(item, f"{path}[{i}]")


class TestKeptBlades:
    """``build_blade`` keeps the blades it assembles, so every part a kept
    blade holds must be immutable."""

    def test_every_part_is_frozen(self):
        for path, part in _parts(build_blade()):
            if dataclasses.is_dataclass(part):
                assert part.__dataclass_params__.frozen, path
            else:
                assert isinstance(
                    part, (int, float, str, bool, tuple, enum.Enum, type(None))
                ), path

    def test_same_arguments_give_the_same_blade(self):
        assert build_blade() is build_blade(8, 8)
        assert build_blade(nx=4, ny=4) is build_blade(nx=4, ny=4)
        assert build_blade(nx=4, ny=4) is not build_blade()
        assert build_blade().system() is build_blade().system()

    def test_a_variant_leaves_the_kept_blade_alone(self):
        kept = build_blade()
        variant = dataclasses.replace(kept, dram_outstanding_bytes=1e6)
        assert build_blade() is kept
        assert kept.dram_outstanding_bytes != 1e6
        assert variant.system() is not kept.system()
        assert variant.system().accelerator.hierarchy != kept.system().accelerator.hierarchy

    def test_invalid_arguments_are_still_rejected(self):
        with pytest.raises(ConfigError):
            build_blade(nx=0)


class TestGPUBaseline:
    def test_h100_headline_numbers(self, gpu_system):
        accel = gpu_system.accelerator
        assert accel.peak_flops == pytest.approx(0.9895e15)
        assert accel.hierarchy["DRAM"].bandwidth == pytest.approx(3.35e12)
        assert accel.memory_capacity_bytes == pytest.approx(80e9)

    def test_l2_is_50mb(self, gpu_system):
        assert gpu_system.accelerator.hierarchy["L2"].capacity_bytes == pytest.approx(
            50e6
        )

    def test_total_capacity_5tb(self, gpu_system):
        # The Fig. 8b reference bar: 64 x 80 GB = 5.12 TB.
        assert gpu_system.total_memory_capacity == pytest.approx(5.12e12)

    def test_hierarchical_fabric(self, gpu_system):
        from repro.interconnect.collectives import HierarchicalFabric

        assert isinstance(gpu_system.accelerator.fabric, HierarchicalFabric)
        assert gpu_system.accelerator.fabric.group_size == 8
