"""Distributed-mapper tests: training and inference mappings."""

from __future__ import annotations

import pytest

from repro.errors import MappingError
from repro.parallel.mapper import (
    OPTIMIZER_BYTES_PER_PARAM,
    MappingCache,
    map_inference,
    map_training,
)
from repro.parallel.strategy import ParallelConfig
from repro.units import TBPS
from repro.workloads.llm import GPT3_175B, GPT3_76B, LLAMA_405B
from repro.workloads.operators import CommKernel, ComputeKernel, KernelKind

PAPER = ParallelConfig(tensor_parallel=8, pipeline_parallel=8, data_parallel=1)


class TestTrainingMapping:
    def test_stage_counts(self, scd_system_16tbps):
        mapped = map_training(GPT3_76B, scd_system_16tbps, PAPER, 64)
        assert len(mapped.stage_fwd_ops) == 8
        assert len(mapped.stage_bwd_ops) == 8
        assert mapped.n_microbatches == 64

    def test_layer_distribution_60_over_8(self, scd_system_16tbps):
        mapped = map_training(GPT3_76B, scd_system_16tbps, PAPER, 64)
        # 60 layers over 8 stages: interior stages hold 7 or 8 layers; the
        # per-stage op counts must reflect that.
        counts = [len(ops) for ops in mapped.stage_fwd_ops]
        assert counts[0] > counts[-2] or counts[0] > counts[1] - 5

    def test_first_stage_has_embedding_last_has_head(self, scd_system_16tbps):
        mapped = map_training(GPT3_76B, scd_system_16tbps, PAPER, 64)
        first_names = [op.name for op in mapped.stage_fwd_ops[0]]
        last_names = [op.name for op in mapped.stage_fwd_ops[-1]]
        assert "tok_embedding" in first_names
        assert "lm_head" in last_names
        assert "lm_head" not in first_names

    def test_flops_match_6pbs_rule(self, scd_system_16tbps):
        """Total fwd+bwd FLOPs ≈ 6·P·tokens plus the attention term."""
        batch = 64
        mapped = map_training(GPT3_76B, scd_system_16tbps, PAPER, batch)
        tokens = batch * GPT3_76B.max_seq_len
        dense = 6.0 * GPT3_76B.n_params * tokens
        attention = 3 * 4 * GPT3_76B.n_layers * tokens * GPT3_76B.max_seq_len * GPT3_76B.hidden
        assert mapped.flops_per_batch == pytest.approx(dense + attention, rel=0.05)

    def test_weight_kernels_carry_residency(self, scd_system_16tbps):
        mapped = map_training(GPT3_76B, scd_system_16tbps, PAPER, 64)
        shard = GPT3_76B.n_params / 64 * 2.0
        for op in mapped.stage_fwd_ops[1]:
            if isinstance(op, ComputeKernel) and op.weight_bytes > 0:
                assert op.resident_set_bytes == pytest.approx(shard)

    def test_dp_allreduce_only_with_dp(self, scd_system_16tbps):
        no_dp = map_training(GPT3_76B, scd_system_16tbps, PAPER, 64)
        assert no_dp.dp_allreduce is None
        with_dp = map_training(
            GPT3_76B,
            scd_system_16tbps,
            ParallelConfig(8, 4, 2),
            64,
        )
        assert with_dp.dp_allreduce is not None
        assert with_dp.dp_allreduce.participants == 2

    def test_memory_accounting(self, scd_system_16tbps, gpu_system):
        mapped = map_training(GPT3_175B, gpu_system, PAPER, 64)
        expected = GPT3_175B.n_params / 64 * OPTIMIZER_BYTES_PER_PARAM
        assert mapped.memory_per_device == pytest.approx(expected)
        assert mapped.fits_memory  # 49 GB < 80 GB HBM
        # The blade's 32 GB/SPU share cannot hold full Adam state for 175B.
        scd_mapped = map_training(GPT3_175B, scd_system_16tbps, PAPER, 64)
        assert not scd_mapped.fits_memory

    def test_p2p_bytes(self, scd_system_16tbps):
        mapped = map_training(GPT3_76B, scd_system_16tbps, PAPER, 64)
        assert mapped.p2p_bytes == pytest.approx(2048 * GPT3_76B.hidden * 2.0)

    def test_invalid_strategy_rejected(self, scd_system_16tbps):
        with pytest.raises(MappingError):
            map_training(GPT3_76B, scd_system_16tbps, ParallelConfig(8, 4, 1), 64)


class TestInferenceMapping:
    def test_defaults_to_full_tp(self, scd_system_16tbps):
        mapped = map_inference(LLAMA_405B, scd_system_16tbps, batch=8)
        assert mapped.parallel.tensor_parallel == 64

    def test_prefill_and_decode_ops(self, scd_system_16tbps):
        mapped = map_inference(LLAMA_405B, scd_system_16tbps, batch=8)
        assert len(mapped.prefill_ops) > LLAMA_405B.n_layers
        step = mapped.decode_ops_at(300)
        assert len(step) > LLAMA_405B.n_layers

    def test_decode_contexts(self, scd_system_16tbps):
        mapped = map_inference(
            LLAMA_405B, scd_system_16tbps, batch=8, input_tokens=200, output_tokens=5
        )
        assert list(mapped.decode_contexts()) == [200, 201, 202, 203, 204]

    def test_decode_contexts_constant_space(self, scd_system_16tbps):
        """decode_contexts is O(1): no output_tokens-length list materialized."""
        mapped = map_inference(
            LLAMA_405B,
            scd_system_16tbps,
            batch=8,
            input_tokens=200,
            output_tokens=10**9,
        )
        contexts = mapped.decode_contexts()
        assert isinstance(contexts, range)
        assert len(contexts) == 10**9
        assert contexts[0] == 200
        assert contexts[-1] == 200 + 10**9 - 1
        assert mapped.decode_context_at(0) == 200
        assert mapped.decode_context_at(10**9 - 1) == 200 + 10**9 - 1
        with pytest.raises(IndexError):
            mapped.decode_context_at(10**9)

    def test_kv_cache_at_context_window(self, scd_system_16tbps):
        mapped = map_inference(LLAMA_405B, scd_system_16tbps, batch=8)
        assert mapped.kv_cache_bytes == pytest.approx(
            LLAMA_405B.kv_cache_bytes(8)
        )

    def test_fits_memory_flags(self, scd_system_16tbps, gpu_system):
        small = map_inference(LLAMA_405B, gpu_system, batch=8)
        assert small.fits_memory
        huge = map_inference(LLAMA_405B, gpu_system, batch=256)
        assert not huge.fits_memory

    def test_kv_residency_annotated(self, scd_system_16tbps):
        mapped = map_inference(LLAMA_405B, scd_system_16tbps, batch=8)
        ops = mapped.decode_ops_at(300)
        score = next(
            op for op in ops
            if isinstance(op, ComputeKernel) and op.kind is KernelKind.ATTN_SCORE
        )
        assert score.resident_set_bytes == pytest.approx(
            LLAMA_405B.kv_cache_bytes(8)
        )

    def test_pp_inference_rejected(self, scd_system_16tbps):
        with pytest.raises(MappingError):
            map_inference(
                LLAMA_405B,
                scd_system_16tbps,
                parallel=ParallelConfig(tensor_parallel=8, pipeline_parallel=8),
                batch=8,
            )


class TestDecodeProgramMemo:
    """Decode-step programs are built once per (mapping, context) and
    shared by every system a cached mapping is rebound to."""

    def test_repeat_calls_return_the_same_program(self, scd_system_16tbps):
        mapped = map_inference(LLAMA_405B, scd_system_16tbps, batch=8)
        program = mapped.decode_program_at(300)
        assert mapped.decode_program_at(300) is program
        assert mapped.decode_program_at(301) is not program
        assert mapped.decode_ops_at(300) == program.flatten()

    def test_rebound_mapping_shares_the_programs(self, scd_system):
        cache = MappingCache()
        systems = [scd_system.with_dram_bandwidth(bw * TBPS) for bw in (2, 4, 8)]
        mapped = [
            cache.map_inference(LLAMA_405B, system, batch=8) for system in systems
        ]
        assert (cache.hits, cache.misses) == (2, 1)
        assert [m.system for m in mapped] == systems
        program = mapped[0].decode_program_at(250)
        assert all(m.decode_program_at(250) is program for m in mapped)

    def test_memo_is_bounded(self, scd_system_16tbps):
        mapped = map_inference(LLAMA_405B, scd_system_16tbps, batch=8)
        first = mapped.decode_program_at(200)
        for context in range(201, 300):
            mapped.decode_program_at(context)
        info = mapped.decode_program_at.cache_info()
        assert info.currsize == info.maxsize < 99
        assert mapped.decode_program_at(200) is not first
        assert mapped.decode_program_at(200) == first
