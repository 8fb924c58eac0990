"""Kernel-vocabulary tests: FLOP/byte accounting, hashing and pickling."""

from __future__ import annotations

import dataclasses
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.timing_cache import KernelTimingCache
from repro.errors import ConfigError
from repro.workloads.operators import (
    CommPattern,
    ComputeKernel,
    KernelKind,
    Phase,
    all_reduce,
    elementwise,
    embedding_lookup,
    gemm,
    layernorm,
    optimizer_step,
    point_to_point,
    softmax,
)

dims = st.integers(min_value=1, max_value=4096)


class TestGEMM:
    @given(dims, dims, dims)
    @settings(max_examples=30, deadline=None)
    def test_flops_and_bytes(self, m, n, k):
        kernel = gemm("g", m, n, k)
        assert kernel.flops == 2.0 * m * n * k
        assert kernel.bytes_total == 2.0 * (m * k + k * n + m * n)

    def test_batched(self):
        single = gemm("g", 128, 128, 64)
        batched = gemm("g", 128, 128, 64, batch=10)
        assert batched.flops == pytest.approx(10 * single.flops)
        assert batched.bytes_total == pytest.approx(10 * single.bytes_total)

    def test_weight_bytes_tagged(self):
        weighted = gemm("g", 128, 256, 512, weight_operand=True)
        act_only = gemm("g", 128, 256, 512, weight_operand=False)
        assert weighted.weight_bytes == pytest.approx(512 * 256 * 2.0)
        assert act_only.weight_bytes == 0.0

    @given(dims, dims, dims)
    @settings(max_examples=30, deadline=None)
    def test_arithmetic_intensity_bounded_by_min_dim(self, m, n, k):
        kernel = gemm("g", m, n, k)
        # AI = mnk/(mk+kn+mn) <= min(m,n,k) for bf16 operands (b=2).
        assert kernel.arithmetic_intensity <= min(m, n, k) + 1e-9

    def test_is_gemm_flag(self):
        assert gemm("g", 8, 8, 8).is_gemm
        assert gemm("g", 8, 8, 8, kind=KernelKind.ATTN_SCORE).is_gemm
        assert not softmax("s", 100).is_gemm


class TestOtherKernels:
    def test_softmax_bytes(self):
        kernel = softmax("s", 1000)
        assert kernel.bytes_total == 2 * 1000 * 2.0
        assert kernel.flops == 5000

    def test_layernorm(self):
        kernel = layernorm("ln", 1000)
        assert kernel.kind is KernelKind.LAYERNORM
        assert kernel.bytes_total == 4000

    def test_elementwise_inputs(self):
        two_in = elementwise("e", 1000, n_inputs=2)
        assert two_in.bytes_read == 2 * 1000 * 2.0
        assert two_in.bytes_written == 1000 * 2.0

    def test_embedding_is_pure_movement(self):
        kernel = embedding_lookup("emb", 100, 4096)
        assert kernel.flops == 0.0
        assert kernel.arithmetic_intensity == 0.0
        assert kernel.bytes_total > 0

    def test_optimizer_deeply_memory_bound(self):
        kernel = optimizer_step("adam", 1e9)
        assert kernel.arithmetic_intensity < 1.0

    def test_working_set_defaults_to_bytes(self):
        kernel = gemm("g", 8, 8, 8)
        assert kernel.working_set_bytes == kernel.bytes_total

    def test_placement_uses_residency(self):
        kernel = gemm("g", 8, 8, 8).with_residency(1e9)
        assert kernel.placement_bytes == 1e9

    def test_scaled(self):
        kernel = gemm("g", 8, 8, 8).scaled(3.0)
        assert kernel.flops == pytest.approx(3 * 2 * 8**3)

    def test_negative_flops_rejected(self):
        with pytest.raises(ConfigError):
            ComputeKernel(
                name="bad", kind=KernelKind.GEMM, flops=-1,
                bytes_read=0, bytes_written=0,
            )


class TestCommKernels:
    def test_all_reduce(self):
        kernel = all_reduce("ar", 1e6, 8)
        assert kernel.pattern is CommPattern.ALL_REDUCE
        assert kernel.participants == 8

    def test_overlap_fraction_validated(self):
        with pytest.raises(ValueError):
            all_reduce("ar", 1e6, 8, overlap_fraction=1.5)

    def test_point_to_point(self):
        kernel = point_to_point("p2p", 1e6)
        assert kernel.participants == 2


#: Builds the same two kernels in a child process and pickles them, with
#: the child's string-hash value of the name to prove its seed differs.
_PICKLE_IN_CHILD = """
import pickle, sys
from repro.workloads.operators import Phase, all_reduce, gemm
kernels = (gemm("qkv", 64, 96, 128, phase=Phase.DECODE), all_reduce("ar", 4096.0, 8))
sys.stdout.buffer.write(pickle.dumps((hash("qkv"), kernels)))
"""


class TestHashAndPickle:
    def test_equal_kernels_hash_equal(self):
        kernel = gemm("g", 8, 16, 32)
        rebuilt = dataclasses.replace(kernel)
        assert rebuilt is not kernel
        assert rebuilt == kernel and hash(rebuilt) == hash(kernel)
        assert hash(kernel.with_residency(1e9)) != hash(kernel)

    def test_kernel_from_another_hash_seed_hits_the_memo(self, scd_system_16tbps):
        src = str(Path(__file__).resolve().parents[2] / "src")
        local_kernels = (
            gemm("qkv", 64, 96, 128, phase=Phase.DECODE),
            all_reduce("ar", 4096.0, 8),
        )
        for seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
            out = subprocess.run(
                [sys.executable, "-c", _PICKLE_IN_CHILD],
                env=env, capture_output=True, check=True, timeout=60,
            ).stdout
            child_name_hash, kernels = pickle.loads(out)
            if child_name_hash != hash("qkv"):
                break
        assert child_name_hash != hash("qkv"), "child ran under our hash seed"

        for unpickled, local in zip(kernels, local_kernels):
            assert unpickled == local
            assert hash(unpickled) == hash(local)
        compute, comm = kernels
        assert compute.is_gemm

        cache = KernelTimingCache()
        timer = cache.bind(scd_system_16tbps.accelerator)
        timer.time_compute(local_kernels[0])
        timer.time_comm(local_kernels[1])
        assert (cache.hits, cache.misses) == (0, 2)
        timer.time_compute(compute)
        timer.time_comm(comm)
        assert (cache.hits, cache.misses) == (2, 2)
