"""The LLM model zoo of the paper's evaluation (Secs. V–VI).

GPT-3 variants follow the Megatron-LM scaling table the paper's TP=8/PP=8
setups come from (Narayanan et al., SC'21).  The Llama/MoE inference models
follow the paper's own accounting: parameter counts match the model names
under the classic GPT-style parameterization ``P ≈ 12·L·h²`` (e.g.
Llama-405B: 12 × 126 × 16384² = 405.9e9), and the KV-cache sizes quoted in
Sec. VI (llama2-7B: 2 GB, 13B: 3 GB, 70B: 10 GB) and plotted in Fig. 8b only
hold for *multi-head* attention with the cache allocated at the full context
window — so that is what the zoo encodes (README "Substitutions" #9).

The MoE-132B/38B configuration is not published; the zoo instance is derived
from the paper's constraints: 16 experts with 4 active, total ≈ 132 B and
active ≈ 38 B parameters.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.errors import ConfigError, require_positive


@dataclass(frozen=True)
class MoESpec:
    """Mixture-of-experts configuration for the MLP blocks."""

    n_experts: int
    active_experts: int
    expert_ffn: int

    def __post_init__(self) -> None:
        require_positive("n_experts", self.n_experts)
        require_positive("active_experts", self.active_experts)
        require_positive("expert_ffn", self.expert_ffn)
        if self.active_experts > self.n_experts:
            raise ConfigError("active_experts cannot exceed n_experts")


@dataclass(frozen=True)
class LLMConfig:
    """A decoder-only transformer configuration.

    Attributes
    ----------
    name:
        Model name as used in the paper's figures.
    n_layers / hidden / n_heads:
        Transformer dimensions.
    kv_heads:
        Key/value heads (= ``n_heads`` for MHA; smaller for GQA).
    ffn_hidden:
        MLP intermediate size (dense models).
    ffn_multiplier:
        2 for GELU-style (two mats), 3 for SwiGLU (three mats).
    vocab_size / max_seq_len:
        Embedding dimensions; ``max_seq_len`` is also the KV-cache
        allocation window.
    moe:
        Optional mixture-of-experts spec replacing the dense MLP.
    """

    name: str
    n_layers: int
    hidden: int
    n_heads: int
    kv_heads: int
    ffn_hidden: int
    vocab_size: int
    max_seq_len: int
    ffn_multiplier: int = 2
    moe: MoESpec | None = None

    def __post_init__(self) -> None:
        require_positive("n_layers", self.n_layers)
        require_positive("hidden", self.hidden)
        require_positive("n_heads", self.n_heads)
        require_positive("kv_heads", self.kv_heads)
        require_positive("ffn_hidden", self.ffn_hidden)
        require_positive("vocab_size", self.vocab_size)
        require_positive("max_seq_len", self.max_seq_len)
        if self.hidden % self.n_heads:
            raise ConfigError(
                f"{self.name}: hidden {self.hidden} not divisible by "
                f"{self.n_heads} heads"
            )
        if self.n_heads % self.kv_heads:
            raise ConfigError(
                f"{self.name}: n_heads {self.n_heads} not divisible by "
                f"kv_heads {self.kv_heads}"
            )
        if self.ffn_multiplier not in (2, 3):
            raise ConfigError("ffn_multiplier must be 2 (GELU) or 3 (SwiGLU)")

    # -- dimensions -----------------------------------------------------------
    @property
    def head_dim(self) -> int:
        """Per-head dimension."""
        return self.hidden // self.n_heads

    @property
    def kv_dim(self) -> int:
        """Total key (or value) width per token."""
        return self.kv_heads * self.head_dim

    @property
    def is_moe(self) -> bool:
        """Whether the MLP is a mixture of experts."""
        return self.moe is not None

    # -- parameter counts ---------------------------------------------------------
    @property
    def attention_params_per_layer(self) -> float:
        """QKV + output projection parameters of one layer."""
        qkv = self.hidden * (self.hidden + 2 * self.kv_dim)
        out = self.hidden * self.hidden
        return float(qkv + out)

    @property
    def mlp_params_per_layer(self) -> float:
        """Dense-equivalent MLP parameters of one layer (all experts)."""
        if self.moe is not None:
            per_expert = self.ffn_multiplier * self.hidden * self.moe.expert_ffn
            router = self.hidden * self.moe.n_experts
            return float(self.moe.n_experts * per_expert + router)
        return float(self.ffn_multiplier * self.hidden * self.ffn_hidden)

    @property
    def active_mlp_params_per_layer(self) -> float:
        """MLP parameters touched per token (active experts only)."""
        if self.moe is not None:
            per_expert = self.ffn_multiplier * self.hidden * self.moe.expert_ffn
            router = self.hidden * self.moe.n_experts
            return float(self.moe.active_experts * per_expert + router)
        return self.mlp_params_per_layer

    @property
    def embedding_params(self) -> float:
        """Token embedding + output head (untied)."""
        return 2.0 * self.vocab_size * self.hidden

    @property
    def n_params(self) -> float:
        """Total parameters."""
        per_layer = self.attention_params_per_layer + self.mlp_params_per_layer
        return self.n_layers * per_layer + self.embedding_params

    @property
    def active_params(self) -> float:
        """Parameters touched per token (differs from total only for MoE)."""
        per_layer = self.attention_params_per_layer + self.active_mlp_params_per_layer
        return self.n_layers * per_layer + self.embedding_params

    # -- memory accounting -----------------------------------------------------------
    def weight_bytes(self, bytes_per_param: float = 2.0) -> float:
        """Model weights at the working precision."""
        return self.n_params * bytes_per_param

    def kv_cache_bytes_per_token(self, bytes_per_element: float = 2.0) -> float:
        """K+V bytes appended per token per sequence."""
        return 2.0 * self.n_layers * self.kv_dim * bytes_per_element

    def kv_cache_bytes(
        self,
        batch: int,
        seq_len: int | None = None,
        bytes_per_element: float = 2.0,
    ) -> float:
        """KV-cache footprint for ``batch`` sequences.

        ``seq_len=None`` allocates at the model's context window — the
        paper's capacity accounting (Fig. 8b, Sec. VI).
        """
        require_positive("batch", batch)
        length = self.max_seq_len if seq_len is None else seq_len
        require_positive("seq_len", length)
        return batch * length * self.kv_cache_bytes_per_token(bytes_per_element)

    # -- utility ------------------------------------------------------------------
    def flops_per_token(self, context_len: float | None = None) -> float:
        """Forward FLOPs per token: 2·P_active plus attention's 4·L·ctx·h."""
        ctx = self.max_seq_len if context_len is None else context_len
        dense = 2.0 * self.active_params
        attention = 4.0 * self.n_layers * ctx * self.kv_dim * (
            self.n_heads / self.kv_heads
        )
        return dense + attention

    def with_layers(self, n_layers: int) -> "LLMConfig":
        """Copy with a different depth (for scaling studies)."""
        return replace(self, n_layers=n_layers)


# ---------------------------------------------------------------------------
# Model zoo
# ---------------------------------------------------------------------------
#: Megatron-LM scaling-table GPT-3 variants (seq 2048, vocab 51200).
GPT3_18B = LLMConfig(
    name="GPT3-18.4B",
    n_layers=40,
    hidden=6144,
    n_heads=48,
    kv_heads=48,
    ffn_hidden=4 * 6144,
    vocab_size=51200,
    max_seq_len=2048,
)

GPT3_76B = LLMConfig(
    name="GPT3-76.1B",
    n_layers=60,
    hidden=10240,
    n_heads=80,
    kv_heads=80,
    ffn_hidden=4 * 10240,
    vocab_size=51200,
    max_seq_len=2048,
)

GPT3_175B = LLMConfig(
    name="GPT3-175B",
    n_layers=96,
    hidden=12288,
    n_heads=96,
    kv_heads=96,
    ffn_hidden=4 * 12288,
    vocab_size=51200,
    max_seq_len=2048,
)

#: Paper-style Llama configurations (MHA; P ≈ 12·L·h²; 4k context window).
LLAMA_405B = LLMConfig(
    name="Llama-405B",
    n_layers=126,
    hidden=16384,
    n_heads=128,
    kv_heads=128,
    ffn_hidden=4 * 16384,
    vocab_size=128256,
    max_seq_len=4096,
)

LLAMA_70B = LLMConfig(
    name="Llama-70B",
    n_layers=80,
    hidden=8192,
    n_heads=64,
    kv_heads=64,
    ffn_hidden=4 * 8192,
    vocab_size=32000,
    max_seq_len=4096,
)

LLAMA2_7B = LLMConfig(
    name="Llama2-7B",
    n_layers=32,
    hidden=4096,
    n_heads=32,
    kv_heads=32,
    ffn_hidden=11008,
    ffn_multiplier=3,
    vocab_size=32000,
    max_seq_len=4096,
)

LLAMA2_13B = LLMConfig(
    name="Llama2-13B",
    n_layers=40,
    hidden=5120,
    n_heads=40,
    kv_heads=40,
    ffn_hidden=13824,
    ffn_multiplier=3,
    vocab_size=32000,
    max_seq_len=4096,
)

LLAMA2_70B = LLMConfig(
    name="Llama2-70B",
    n_layers=80,
    hidden=8192,
    n_heads=64,
    kv_heads=64,
    ffn_hidden=28672,
    ffn_multiplier=3,
    vocab_size=32000,
    max_seq_len=4096,
)

#: MoE-132B/38B: derived from the paper's constraints — 16 experts, 4 active,
#: ≈132 B total and ≈38 B active parameters.
MOE_132B = LLMConfig(
    name="MoE-132B/38B",
    n_layers=40,
    hidden=6144,
    n_heads=64,
    kv_heads=64,
    ffn_hidden=15936,
    vocab_size=32000,
    max_seq_len=4096,
    moe=MoESpec(n_experts=16, active_experts=4, expert_ffn=15936),
)

#: All models keyed by figure label.
MODEL_ZOO: dict[str, LLMConfig] = {
    cfg.name: cfg
    for cfg in (
        GPT3_18B,
        GPT3_76B,
        GPT3_175B,
        LLAMA_405B,
        LLAMA_70B,
        LLAMA2_7B,
        LLAMA2_13B,
        LLAMA2_70B,
        MOE_132B,
    )
}

__all__ = [
    "MoESpec",
    "LLMConfig",
    "MODEL_ZOO",
    "GPT3_18B",
    "GPT3_76B",
    "GPT3_175B",
    "LLAMA_405B",
    "LLAMA_70B",
    "LLAMA2_7B",
    "LLAMA2_13B",
    "LLAMA2_70B",
    "MOE_132B",
]
