"""Transformer kernel-builder tests: FLOP identities and sharding laws."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.workloads.llm import GPT3_76B, MOE_132B
from repro.workloads.operators import CommKernel, ComputeKernel, KernelKind
from repro.workloads.transformer import (
    LayerShape,
    backward_ops,
    expected_touched_experts,
    layer_forward_ops,
    lm_head_ops,
    total_compute_flops,
)


def fwd_flops(tp: int, n_tokens: int = 2048) -> float:
    shape = LayerShape(n_tokens=n_tokens, batch_seqs=1, kv_len=n_tokens, tp=tp)
    return total_compute_flops(layer_forward_ops(GPT3_76B, shape))


class TestShardingLaws:
    @pytest.mark.parametrize("tp", [2, 4, 8])
    def test_gemm_flops_divide_by_tp(self, tp):
        # Per-device FLOPs scale ~1/tp (norms/softmax are replicated but
        # GEMMs dominate).
        ratio = fwd_flops(1) / fwd_flops(tp)
        assert ratio == pytest.approx(tp, rel=0.05)

    def test_analytic_layer_flops(self):
        """Dense layer ≈ 2 tokens (12 h² + ctx·h attention GEMM term)."""
        h = GPT3_76B.hidden
        tokens = 2048
        analytic = 2 * tokens * (12 * h * h) + 4 * tokens * tokens * h
        assert fwd_flops(1) == pytest.approx(analytic, rel=0.02)

    def test_allreduce_count_megatron(self):
        shape = LayerShape(n_tokens=2048, batch_seqs=1, kv_len=2048, tp=8)
        ops = layer_forward_ops(GPT3_76B, shape)
        comms = [op for op in ops if isinstance(op, CommKernel)]
        assert len(comms) == 2  # attention + MLP all-reduce
        for comm in comms:
            assert comm.n_bytes == 2048 * GPT3_76B.hidden * 2.0

    def test_no_allreduce_without_tp(self):
        shape = LayerShape(n_tokens=2048, batch_seqs=1, kv_len=2048, tp=1)
        ops = layer_forward_ops(GPT3_76B, shape)
        assert not any(isinstance(op, CommKernel) for op in ops)

    def test_tp_must_divide_heads(self):
        shape = LayerShape(n_tokens=128, batch_seqs=1, kv_len=128, tp=7)
        with pytest.raises(ConfigError):
            layer_forward_ops(GPT3_76B, shape)

    def test_tokens_divisible_by_seqs(self):
        with pytest.raises(ConfigError):
            LayerShape(n_tokens=100, batch_seqs=3, kv_len=10)


class TestBackward:
    def test_bwd_flops_twice_fwd(self):
        shape = LayerShape(n_tokens=2048, batch_seqs=1, kv_len=2048, tp=8)
        fwd = layer_forward_ops(GPT3_76B, shape)
        bwd = backward_ops(fwd)
        assert total_compute_flops(bwd) == pytest.approx(
            2 * total_compute_flops(fwd), rel=0.02
        )

    def test_bwd_repeats_collectives(self):
        shape = LayerShape(n_tokens=2048, batch_seqs=1, kv_len=2048, tp=8)
        fwd = layer_forward_ops(GPT3_76B, shape)
        bwd = backward_ops(fwd)
        assert sum(isinstance(op, CommKernel) for op in bwd) == 2

    def test_gemms_split_into_dgrad_wgrad(self):
        shape = LayerShape(n_tokens=128, batch_seqs=1, kv_len=128, tp=1)
        fwd = layer_forward_ops(GPT3_76B, shape)
        bwd = backward_ops(fwd)
        n_fwd_gemm = sum(
            1 for op in fwd if isinstance(op, ComputeKernel) and op.is_gemm
        )
        n_bwd_gemm = sum(
            1 for op in bwd if isinstance(op, ComputeKernel) and op.is_gemm
        )
        assert n_bwd_gemm == 2 * n_fwd_gemm


class TestAttentionShapes:
    def test_decode_kernels_scale_with_context(self):
        short = LayerShape(n_tokens=8, batch_seqs=8, kv_len=100, tp=8)
        long = LayerShape(n_tokens=8, batch_seqs=8, kv_len=400, tp=8)
        t_short = total_compute_flops(layer_forward_ops(GPT3_76B, short))
        t_long = total_compute_flops(layer_forward_ops(GPT3_76B, long))
        assert t_long > t_short

    def test_score_kernel_intensity_near_head_dim(self):
        shape = LayerShape(n_tokens=2048, batch_seqs=1, kv_len=2048, tp=8)
        ops = layer_forward_ops(GPT3_76B, shape)
        score = next(
            op for op in ops
            if isinstance(op, ComputeKernel) and op.kind is KernelKind.ATTN_SCORE
        )
        # AI = d/(1 + 2d/s) ≈ 114 for d=128, s=2048.  An SPU sustains
        # 1.97 PFLOP/s, so this kernel's roofline crossover (1.97e15 / 114
        # ≈ 17 TB/s) sits near the paper's 16 TBps operating point.
        assert score.arithmetic_intensity == pytest.approx(113.8, rel=0.01)


class TestMoE:
    def test_touched_experts_limits(self):
        assert expected_touched_experts(16, 4, 1) == pytest.approx(4.0)
        assert expected_touched_experts(16, 4, 100000) == pytest.approx(16.0)

    def test_touched_monotone_in_tokens(self):
        values = [expected_touched_experts(16, 4, n) for n in (1, 4, 16, 64)]
        assert values == sorted(values)

    def test_moe_layer_has_a2a(self):
        shape = LayerShape(n_tokens=64, batch_seqs=8, kv_len=200, tp=8)
        ops = layer_forward_ops(MOE_132B, shape)
        a2a = [
            op for op in ops
            if isinstance(op, CommKernel) and op.pattern.value == "all_to_all"
        ]
        assert len(a2a) == 2  # dispatch + combine

    def test_moe_weight_traffic_below_dense_equivalent(self):
        """At B=8 decode only ~14 of 16 experts stream per layer."""
        shape = LayerShape(n_tokens=8, batch_seqs=8, kv_len=200, tp=8)
        ops = layer_forward_ops(MOE_132B, shape)
        expert_weight_bytes = sum(
            op.weight_bytes
            for op in ops
            if isinstance(op, ComputeKernel) and op.name.startswith("moe_expert")
        )
        all_experts = (
            MOE_132B.moe.n_experts
            * 2 * MOE_132B.hidden * MOE_132B.moe.expert_ffn * 2.0 / shape.tp
        )
        assert expert_weight_bytes < all_experts
        assert expert_weight_bytes > 0.5 * all_experts


class TestHeadOps:
    def test_lm_head_includes_vocab_gemm(self):
        ops = lm_head_ops(GPT3_76B, 64, tp=8)
        gemms = [op for op in ops if isinstance(op, ComputeKernel) and op.is_gemm]
        assert gemms[0].flops == pytest.approx(
            2 * 64 * (GPT3_76B.vocab_size / 8) * GPT3_76B.hidden
        )
