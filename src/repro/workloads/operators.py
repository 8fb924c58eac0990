"""Kernel vocabulary: the atomic operations of the LLM task graph.

Two op families exist:

* :class:`ComputeKernel` — timed by the hierarchical roofline (FLOPs vs bytes
  moved from the serving memory level);
* :class:`CommKernel` — timed by the collective α–β models on the system's
  fabric.

Builders at the bottom of the module construct kernels with exact FLOP/byte
accounting for the op shapes transformers use.  Byte counts assume the
operands are streamed once per kernel (inputs read, outputs written); reuse
*within* a kernel (tiling) is captured by arithmetic intensity, reuse *across*
kernels by the hierarchy's working-set rule.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import Sequence

from repro.errors import require_non_negative, require_positive


class KernelKind(enum.Enum):
    """Compute-kernel families (used for reporting and efficiency factors)."""

    GEMM = "gemm"
    ATTN_SCORE = "attn_score"
    ATTN_CONTEXT = "attn_context"
    SOFTMAX = "softmax"
    LAYERNORM = "layernorm"
    ELEMENTWISE = "elementwise"
    EMBEDDING = "embedding"
    OPTIMIZER = "optimizer"
    ROUTER = "router"


#: Kernel kinds in the paper's "GEMM" bucket.
_GEMM_KINDS = frozenset(
    (KernelKind.GEMM, KernelKind.ATTN_SCORE, KernelKind.ATTN_CONTEXT)
)


class Phase(enum.Enum):
    """Where in the end-to-end schedule a kernel executes."""

    FORWARD = "forward"
    BACKWARD = "backward"
    UPDATE = "update"
    PREFILL = "prefill"
    DECODE = "decode"


class CommPattern(enum.Enum):
    """Collective patterns issued by the parallelization strategies."""

    ALL_REDUCE = "all_reduce"
    ALL_GATHER = "all_gather"
    REDUCE_SCATTER = "reduce_scatter"
    ALL_TO_ALL = "all_to_all"
    POINT_TO_POINT = "point_to_point"


@dataclass(frozen=True)
class ComputeKernel:
    """One compute kernel on a single accelerator.

    Attributes
    ----------
    name:
        Human-readable identifier ("qkv_proj", "attn_score", ...).
    kind:
        :class:`KernelKind` family.
    flops:
        Floating-point operations (multiply-accumulate counts as 2).
    bytes_read / bytes_written:
        Data streamed in/out of the serving memory level.
    working_set_bytes:
        Bytes that must be resident while the kernel runs; decides the
        serving level in the hierarchy (weights + in/out tiles + scratch).
    weight_bytes:
        Bytes of model parameters streamed by this kernel (0 for
        weight-free kernels).  The mapper uses it to attach residency.
    resident_set_bytes:
        Footprint of the *persistent* data this kernel touches (the
        device's full weight shard, the KV cache, ...).  A level can only
        serve the kernel if the persistent data actually lives there, so
        level selection uses ``max(working_set, resident_set)``.
    phase:
        Schedule phase.
    is_gemm:
        Whether the kernel belongs to the paper's "GEMM" bucket (Fig. 5
        inset separates GEMM time from the rest).  Derived from ``kind``
        at construction, not a field.

    The timing memo hashes a kernel on every lookup, so the hash is
    computed once at construction.  Pickling rebuilds the kernel from its
    fields, so an unpickled kernel hashes under the receiving process's
    string-hash seed and still hits that process's memo.
    """

    name: str
    kind: KernelKind
    flops: float
    bytes_read: float
    bytes_written: float
    working_set_bytes: float = 0.0
    weight_bytes: float = 0.0
    resident_set_bytes: float = 0.0
    phase: Phase = Phase.FORWARD

    def __post_init__(self) -> None:
        require_non_negative(f"{self.name} flops", self.flops)
        require_non_negative(f"{self.name} bytes_read", self.bytes_read)
        require_non_negative(f"{self.name} bytes_written", self.bytes_written)
        require_non_negative(
            f"{self.name} working_set_bytes", self.working_set_bytes
        )
        require_non_negative(f"{self.name} weight_bytes", self.weight_bytes)
        require_non_negative(
            f"{self.name} resident_set_bytes", self.resident_set_bytes
        )
        if self.working_set_bytes == 0.0:
            object.__setattr__(
                self, "working_set_bytes", self.bytes_read + self.bytes_written
            )
        object.__setattr__(self, "is_gemm", self.kind in _GEMM_KINDS)
        object.__setattr__(self, "_hash", hash(self._fields()))

    def _fields(self) -> tuple:
        return (
            self.name,
            self.kind,
            self.flops,
            self.bytes_read,
            self.bytes_written,
            self.working_set_bytes,
            self.weight_bytes,
            self.resident_set_bytes,
            self.phase,
        )

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return (type(self), self._fields())

    @property
    def placement_bytes(self) -> float:
        """Bytes that decide the serving memory level."""
        return max(self.working_set_bytes, self.resident_set_bytes)

    def with_residency(self, resident_set_bytes: float) -> "ComputeKernel":
        """Copy with a persistent-footprint annotation."""
        return replace(self, resident_set_bytes=resident_set_bytes)

    @property
    def bytes_total(self) -> float:
        """Total bytes moved."""
        return self.bytes_read + self.bytes_written

    @property
    def arithmetic_intensity(self) -> float:
        """FLOPs per byte (∞ for pure-compute kernels)."""
        total = self.bytes_total
        return self.flops / total if total > 0 else float("inf")

    def scaled(self, factor: float) -> "ComputeKernel":
        """Kernel with flops/bytes multiplied by ``factor`` (batching)."""
        require_positive("factor", factor)
        return replace(
            self,
            flops=self.flops * factor,
            bytes_read=self.bytes_read * factor,
            bytes_written=self.bytes_written * factor,
            working_set_bytes=self.working_set_bytes * factor,
        )


@dataclass(frozen=True)
class CommKernel:
    """One collective operation among ``participants`` accelerators."""

    name: str
    pattern: CommPattern
    n_bytes: float
    participants: int
    phase: Phase = Phase.FORWARD
    #: Fraction of this collective hidden under compute (0 = fully exposed).
    overlap_fraction: float = 0.0
    #: True when the participants sit in *different* fabric groups (e.g. the
    #: data-parallel gradient all-reduce, whose ranks are the outermost
    #: dimension of the mapping — different nodes/blades).  Hierarchical
    #: fabrics then route it over the inter-group level.
    spans_groups: bool = False

    def __post_init__(self) -> None:
        require_non_negative(f"{self.name} n_bytes", self.n_bytes)
        require_positive(f"{self.name} participants", self.participants)
        if not 0.0 <= self.overlap_fraction <= 1.0:
            raise ValueError(
                f"{self.name} overlap_fraction must be in [0,1], "
                f"got {self.overlap_fraction}"
            )
        # Hashed once, rebuilt from fields on unpickle: as ComputeKernel.
        object.__setattr__(self, "_hash", hash(self._fields()))

    def _fields(self) -> tuple:
        return (
            self.name,
            self.pattern,
            self.n_bytes,
            self.participants,
            self.phase,
            self.overlap_fraction,
            self.spans_groups,
        )

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return (type(self), self._fields())


#: Union type for task-graph entries.
Op = ComputeKernel | CommKernel


# ---------------------------------------------------------------------------
# Op programs: run-length-encoded kernel streams
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class Segment:
    """A run-length-encoded span of an op program: ``ops`` executed
    ``repeat`` times back to back.

    A pipeline stage holding 8 identical transformer layers stores one
    layer's op list with ``repeat=8`` instead of 8 copies — the timing
    engine times the span once and scales, turning per-stage cost from
    O(layers × ops) into O(ops).
    """

    ops: tuple[Op, ...]
    repeat: int = 1

    def __post_init__(self) -> None:
        require_positive("repeat", self.repeat)
        if not isinstance(self.ops, tuple):
            object.__setattr__(self, "ops", tuple(self.ops))

    @property
    def n_ops(self) -> int:
        """Flattened op count of the span."""
        return len(self.ops) * self.repeat

    def compute_flops(self) -> float:
        """FLOPs over compute kernels in the span (collectives excluded)."""
        return self.repeat * sum(
            op.flops for op in self.ops if isinstance(op, ComputeKernel)
        )

    def flatten(self) -> tuple[Op, ...]:
        """The fully replicated op stream (seed representation)."""
        return self.ops * self.repeat


@dataclass(frozen=True)
class OpProgram:
    """An ordered sequence of run-length-encoded segments.

    This is what :class:`~repro.parallel.mapper.MappedTraining` /
    ``MappedInference`` carry per stage; ``flatten()`` recovers the seed's
    one-op-per-replica list for consumers that need it.
    """

    segments: tuple[Segment, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.segments, tuple):
            object.__setattr__(self, "segments", tuple(self.segments))

    @classmethod
    def from_ops(cls, ops: Sequence[Op], repeat: int = 1) -> "OpProgram":
        """Wrap a plain op list as a single-segment program."""
        return cls(segments=(Segment(ops=tuple(ops), repeat=repeat),))

    @property
    def n_ops(self) -> int:
        """Flattened op count."""
        return sum(segment.n_ops for segment in self.segments)

    @property
    def n_unique_ops(self) -> int:
        """Ops the timing engine actually visits (one per segment entry)."""
        return sum(len(segment.ops) for segment in self.segments)

    def compute_flops(self) -> float:
        """FLOPs over compute kernels (collectives excluded)."""
        return sum(segment.compute_flops() for segment in self.segments)

    def flatten(self) -> tuple[Op, ...]:
        """The fully replicated op stream (seed representation)."""
        flat: list[Op] = []
        for segment in self.segments:
            flat.extend(segment.flatten())
        return tuple(flat)


# ---------------------------------------------------------------------------
# Compute-kernel builders
# ---------------------------------------------------------------------------
def gemm(
    name: str,
    m: int,
    n: int,
    k: int,
    bytes_per_element: float = 2.0,
    batch: int = 1,
    phase: Phase = Phase.FORWARD,
    kind: KernelKind = KernelKind.GEMM,
    weight_operand: bool = True,
) -> ComputeKernel:
    """A (possibly batched) GEMM: ``C[m,n] += A[m,k] · B[k,n]``.

    ``weight_operand`` marks B as parameters (it still counts toward bytes
    and working set; the flag only documents intent for readers).
    """
    require_positive("m", m)
    require_positive("n", n)
    require_positive("k", k)
    require_positive("batch", batch)
    flops = 2.0 * m * n * k * batch
    a_bytes = m * k * bytes_per_element * batch
    b_bytes = k * n * bytes_per_element * batch
    c_bytes = m * n * bytes_per_element * batch
    return ComputeKernel(
        name=name,
        kind=kind,
        flops=flops,
        bytes_read=a_bytes + b_bytes,
        bytes_written=c_bytes,
        weight_bytes=b_bytes if weight_operand else 0.0,
        phase=phase,
    )


def softmax(
    name: str,
    n_elements: float,
    bytes_per_element: float = 2.0,
    phase: Phase = Phase.FORWARD,
) -> ComputeKernel:
    """Row-wise softmax over ``n_elements`` (max, sub, exp, sum, div ≈ 5 flops)."""
    require_positive("n_elements", n_elements)
    return ComputeKernel(
        name=name,
        kind=KernelKind.SOFTMAX,
        flops=5.0 * n_elements,
        bytes_read=n_elements * bytes_per_element,
        bytes_written=n_elements * bytes_per_element,
        phase=phase,
    )


def layernorm(
    name: str,
    n_elements: float,
    bytes_per_element: float = 2.0,
    phase: Phase = Phase.FORWARD,
) -> ComputeKernel:
    """LayerNorm/RMSNorm over ``n_elements`` (~8 flops/element)."""
    require_positive("n_elements", n_elements)
    return ComputeKernel(
        name=name,
        kind=KernelKind.LAYERNORM,
        flops=8.0 * n_elements,
        bytes_read=n_elements * bytes_per_element,
        bytes_written=n_elements * bytes_per_element,
        phase=phase,
    )


def elementwise(
    name: str,
    n_elements: float,
    flops_per_element: float = 1.0,
    n_inputs: int = 1,
    bytes_per_element: float = 2.0,
    phase: Phase = Phase.FORWARD,
) -> ComputeKernel:
    """Element-wise op (activation, residual add, dropout, bias)."""
    require_positive("n_elements", n_elements)
    return ComputeKernel(
        name=name,
        kind=KernelKind.ELEMENTWISE,
        flops=flops_per_element * n_elements,
        bytes_read=n_inputs * n_elements * bytes_per_element,
        bytes_written=n_elements * bytes_per_element,
        phase=phase,
    )


def embedding_lookup(
    name: str,
    n_tokens: int,
    hidden: int,
    bytes_per_element: float = 2.0,
    phase: Phase = Phase.FORWARD,
) -> ComputeKernel:
    """Embedding-table gather: pure data movement."""
    require_positive("n_tokens", n_tokens)
    require_positive("hidden", hidden)
    moved = n_tokens * hidden * bytes_per_element
    return ComputeKernel(
        name=name,
        kind=KernelKind.EMBEDDING,
        flops=0.0,
        bytes_read=moved,
        bytes_written=moved,
        phase=phase,
    )


def optimizer_step(
    name: str,
    n_params: float,
    bytes_per_param: float = 18.0,
    flops_per_param: float = 12.0,
    phase: Phase = Phase.UPDATE,
) -> ComputeKernel:
    """Adam-style update: stream weights(2) + grads(2) + moments(8) +
    fp32 master copy(4) read, write ~half back; deeply memory-bound."""
    require_positive("n_params", n_params)
    return ComputeKernel(
        name=name,
        kind=KernelKind.OPTIMIZER,
        flops=flops_per_param * n_params,
        bytes_read=bytes_per_param * n_params,
        bytes_written=bytes_per_param * n_params * 0.75,
        phase=phase,
    )


# ---------------------------------------------------------------------------
# Comm-kernel builders
# ---------------------------------------------------------------------------
def all_reduce(
    name: str,
    n_bytes: float,
    participants: int,
    phase: Phase = Phase.FORWARD,
    overlap_fraction: float = 0.0,
    spans_groups: bool = False,
) -> CommKernel:
    """All-reduce of ``n_bytes`` per participant."""
    return CommKernel(
        name=name,
        pattern=CommPattern.ALL_REDUCE,
        n_bytes=n_bytes,
        participants=participants,
        phase=phase,
        overlap_fraction=overlap_fraction,
        spans_groups=spans_groups,
    )


def all_to_all(
    name: str,
    n_bytes: float,
    participants: int,
    phase: Phase = Phase.FORWARD,
    overlap_fraction: float = 0.0,
) -> CommKernel:
    """All-to-all where each rank redistributes ``n_bytes``."""
    return CommKernel(
        name=name,
        pattern=CommPattern.ALL_TO_ALL,
        n_bytes=n_bytes,
        participants=participants,
        phase=phase,
        overlap_fraction=overlap_fraction,
    )


def point_to_point(
    name: str,
    n_bytes: float,
    phase: Phase = Phase.FORWARD,
) -> CommKernel:
    """Point-to-point transfer (pipeline-stage boundary)."""
    return CommKernel(
        name=name,
        pattern=CommPattern.POINT_TO_POINT,
        n_bytes=n_bytes,
        participants=2,
        phase=phase,
    )


__all__ = [
    "KernelKind",
    "Phase",
    "CommPattern",
    "ComputeKernel",
    "CommKernel",
    "Op",
    "Segment",
    "OpProgram",
    "gemm",
    "softmax",
    "layernorm",
    "elementwise",
    "embedding_lookup",
    "optimizer_step",
    "all_reduce",
    "all_to_all",
    "point_to_point",
]
