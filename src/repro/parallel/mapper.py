"""The distributed mapper: place an LLM workload onto a system (Sec. V).

"For a given system architecture and workload, we assess the most optimal
mapping, reducing communication overhead."  The mapper applies a
:class:`~repro.parallel.strategy.ParallelConfig` to a model and emits the
per-device kernel lists the Optimus evaluator times:

* **training** — per-pipeline-stage forward/backward op lists per microbatch
  (tensor-parallel collectives embedded), stage-boundary point-to-point
  sizes, the data-parallel gradient all-reduce, and the optimizer step;
* **inference** — prefill op list plus a decode-step op-list builder
  parameterized by context length (the KV cache grows as tokens generate).

Three memos keep a cold compute from building the same thing twice.
``map_training`` builds a layer's forward and backward kernels (and the
embedding and LM-head kernels around them) once per ``(model,
LayerShape)``, in a bounded LRU, and attaches each strategy's weight
residency to copies: a strategy search maps many (TP, PP, DP) strategies
onto a few layer shapes.  An inference mapping builds each decode-step
program once per context, and only the attention kernels that read the
context per program: the rest of the layer, the embedding and the LM head
are built once per mapping and shared.  :class:`MappingCache` maps a
workload once for every system with the same accelerator count; the
scenario runner and the strategy search
(:func:`repro.core.optimizer.search_strategies`) both map through the
process-wide one.
"""

from __future__ import annotations

import dataclasses
import functools
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.arch.system import SystemSpec
from repro.errors import MappingError, require_positive
from repro.parallel.strategy import ParallelConfig
from repro.workloads.llm import LLMConfig
from repro.workloads.operators import (
    CommKernel,
    CommPattern,
    ComputeKernel,
    Op,
    OpProgram,
    Phase,
    Segment,
    all_reduce,
    optimizer_step,
)
from repro.workloads.transformer import (
    LayerShape,
    attention_context_ops,
    backward_ops,
    embedding_ops,
    layer_forward_ops,
    layer_forward_parts,
    lm_head_ops,
)

#: Bytes of optimizer state per parameter (bf16 weights + grads, fp32 Adam
#: moments and master copy ≈ 18 B — the usual mixed-precision recipe).
OPTIMIZER_BYTES_PER_PARAM = 18.0

#: Decode-step programs kept per inference mapping.  An evaluation times
#: ``decode_samples`` (default 9) context lengths, the same ones for every
#: system that reuses the mapping.
_DECODE_PROGRAMS_PER_MAPPING = 16

#: Training layer shapes whose kernels are kept.  A strategy search over
#: up to 64 candidates meets a handful of (TP, microbatch) shapes.
_LAYER_SHAPES = 32

from repro.workloads.operators import KernelKind


def _attach_residency(
    ops: Sequence[Op], weight_resident: float, kv_resident: float = 0.0
) -> list[Op]:
    """Annotate kernels with the persistent footprint they touch.

    Weight-streaming kernels (and embedding gathers) can only be served by a
    level that holds the device's *entire* weight shard; attention
    score/context kernels by a level holding the KV cache.  This is what
    makes the hierarchical roofline "hierarchical": per-kernel bytes may be
    small, but the data they page through is the full resident set.
    """
    annotated: list[Op] = []
    for op in ops:
        if isinstance(op, ComputeKernel):
            if op.weight_bytes > 0 or op.kind is KernelKind.EMBEDDING:
                op = op.with_residency(weight_resident)
            elif kv_resident > 0 and op.kind in (
                KernelKind.ATTN_SCORE,
                KernelKind.ATTN_CONTEXT,
            ):
                op = op.with_residency(kv_resident)
        annotated.append(op)
    return annotated


@functools.lru_cache(maxsize=_LAYER_SHAPES)
def _layer_kernels(
    model: LLMConfig, shape: LayerShape
) -> tuple[tuple[Op, ...], ...]:
    """One training layer's kernels before residency is attached:
    ``(layer_fwd, layer_bwd, emb_fwd, emb_bwd, head_fwd, head_bwd)``.

    ``backward_ops`` carries no residency, so deriving the backward kernels
    from the bare forward ones gives the kernels it derives from annotated
    ones."""
    n_tokens, precision = shape.n_tokens, shape.bytes_per_element
    layer = layer_forward_ops(model, shape)
    emb = embedding_ops(model, n_tokens, precision)
    head = lm_head_ops(model, n_tokens, shape.tp, precision)
    return tuple(
        tuple(ops)
        for ops in (
            layer,
            backward_ops(layer),
            emb,
            backward_ops(emb),
            head,
            backward_ops(head),
        )
    )


@dataclass(frozen=True)
class MappedTraining:
    """A training step mapped onto a system.

    Stage op streams are carried as run-length-encoded
    :class:`~repro.workloads.operators.OpProgram` objects (one layer's op
    list with a multiplicity, not N replicas); the ``stage_fwd_ops`` /
    ``stage_bwd_ops`` properties flatten them back to the seed
    representation for consumers that want plain lists.
    """

    model: LLMConfig
    system: SystemSpec
    parallel: ParallelConfig
    batch: int
    seq_len: int
    precision_bytes: float
    stage_fwd_programs: tuple[OpProgram, ...]
    stage_bwd_programs: tuple[OpProgram, ...]
    p2p_bytes: float
    n_microbatches: int
    dp_allreduce: CommKernel | None
    update_ops: tuple[Op, ...]

    @property
    def stage_fwd_ops(self) -> tuple[tuple[Op, ...], ...]:
        """Flattened per-stage forward op lists (seed representation)."""
        return tuple(program.flatten() for program in self.stage_fwd_programs)

    @property
    def stage_bwd_ops(self) -> tuple[tuple[Op, ...], ...]:
        """Flattened per-stage backward op lists (seed representation)."""
        return tuple(program.flatten() for program in self.stage_bwd_programs)

    @property
    def flops_per_batch(self) -> float:
        """Useful FLOPs per global batch across the whole system (fwd+bwd).

        Derived from program segment counts — O(unique ops), not
        O(layers × ops) — and each program sums its FLOPs once."""
        per_microbatch = sum(
            program.compute_flops()
            for program in self.stage_fwd_programs + self.stage_bwd_programs
        )
        replicas = self.parallel.data_parallel
        tp = self.parallel.tensor_parallel
        return per_microbatch * self.n_microbatches * replicas * tp

    @property
    def memory_per_device(self) -> float:
        """Weights + optimizer state per device, bytes (activations excluded)."""
        shards = self.parallel.tensor_parallel * self.parallel.pipeline_parallel
        return self.model.n_params / shards * OPTIMIZER_BYTES_PER_PARAM

    @property
    def fits_memory(self) -> bool:
        """Whether the static state fits each device's main memory."""
        return (
            self.memory_per_device
            <= self.system.accelerator.memory_capacity_bytes
        )


@dataclass(frozen=True)
class MappedInference:
    """An inference request (prefill + decode) mapped onto a system.

    Prefill and decode-step kernel streams are run-length-encoded
    :class:`~repro.workloads.operators.OpProgram` objects; ``prefill_ops``
    and ``decode_ops_at`` flatten them back to the seed representation.
    ``decode_program_at`` memoizes the last few contexts it built, and a
    copy rebound to another system shares that memo.
    """

    model: LLMConfig
    system: SystemSpec
    parallel: ParallelConfig
    batch: int
    input_tokens: int
    output_tokens: int
    precision_bytes: float
    prefill_program: OpProgram
    decode_program_at: Callable[[int], OpProgram] = field(repr=False)

    @property
    def prefill_ops(self) -> tuple[Op, ...]:
        """Flattened prefill op list (seed representation)."""
        return self.prefill_program.flatten()

    def decode_ops_at(self, context: int) -> tuple[Op, ...]:
        """Flattened decode-step op list at ``context`` (seed representation)."""
        return self.decode_program_at(context).flatten()

    @property
    def kv_cache_bytes(self) -> float:
        """KV-cache allocation for the batch (at the model's context window,
        the paper's capacity accounting)."""
        return self.model.kv_cache_bytes(self.batch, bytes_per_element=self.precision_bytes)

    @property
    def weights_bytes(self) -> float:
        """Total model weights at working precision."""
        return self.model.weight_bytes(self.precision_bytes)

    @property
    def memory_required(self) -> float:
        """System-wide memory for weights + KV cache."""
        return self.weights_bytes + self.kv_cache_bytes

    @property
    def fits_memory(self) -> bool:
        """Whether weights + KV fit the system's total main memory (the GPU
        ceiling of Fig. 8b)."""
        return self.memory_required <= self.system.total_memory_capacity

    @property
    def n_decode_steps(self) -> int:
        """Number of decode steps (one per generated token)."""
        return self.output_tokens

    def decode_context_at(self, step: int) -> int:
        """Context length at decode step ``step`` — O(1) arithmetic."""
        if not 0 <= step < self.output_tokens:
            raise IndexError(
                f"decode step {step} out of range [0, {self.output_tokens})"
            )
        return self.input_tokens + step

    def decode_contexts(self) -> range:
        """The context length at each decode step (an O(1) lazy range, not
        an ``output_tokens``-length list)."""
        return range(self.input_tokens, self.input_tokens + self.output_tokens)


def map_training(
    model: LLMConfig,
    system: SystemSpec,
    parallel: ParallelConfig,
    batch: int,
    seq_len: int | None = None,
    precision_bytes: float = 2.0,
    tp_overlap: float = 0.0,
) -> MappedTraining:
    """Map one training step (fwd + bwd + update) onto ``system``."""
    require_positive("batch", batch)
    seq = model.max_seq_len if seq_len is None else seq_len
    require_positive("seq_len", seq)
    parallel.validate(model, system.n_accelerators, batch)

    tp = parallel.tensor_parallel
    shape = LayerShape(
        n_tokens=parallel.microbatch_size * seq,
        batch_seqs=parallel.microbatch_size,
        kv_len=seq,
        tp=tp,
        bytes_per_element=precision_bytes,
        tp_overlap=tp_overlap,
    )
    weight_resident = (
        model.n_params / (tp * parallel.pipeline_parallel) * precision_bytes
    )
    layer_fwd, layer_bwd, emb_fwd, emb_bwd, head_fwd, head_bwd = _layer_kernels(
        model, shape
    )
    layer_fwd = tuple(_attach_residency(layer_fwd, weight_resident))
    layer_bwd = tuple(_attach_residency(layer_bwd, weight_resident))

    stage_fwd: list[OpProgram] = []
    stage_bwd: list[OpProgram] = []
    layer_counts = parallel.layers_per_stage(model.n_layers)
    for stage, n_layers in enumerate(layer_counts):
        fwd_segments: list[Segment] = []
        bwd_segments: list[Segment] = []
        if stage == 0:
            emb = _attach_residency(emb_fwd, weight_resident)
            fwd_segments.append(Segment(tuple(emb)))
            bwd_segments.append(Segment(emb_bwd))
        if n_layers > 0:
            fwd_segments.append(Segment(layer_fwd, repeat=n_layers))
            bwd_segments.append(Segment(layer_bwd, repeat=n_layers))
        if stage == len(layer_counts) - 1:
            head = _attach_residency(head_fwd, weight_resident)
            fwd_segments.append(Segment(tuple(head)))
            bwd_segments.append(Segment(head_bwd))
        stage_fwd.append(OpProgram(tuple(fwd_segments)))
        stage_bwd.append(OpProgram(tuple(bwd_segments)))

    n_micro = parallel.n_microbatches(batch)
    p2p_bytes = shape.n_tokens * model.hidden * precision_bytes

    dp_comm: CommKernel | None = None
    if parallel.data_parallel > 1:
        grad_bytes = (
            model.n_params
            / (tp * parallel.pipeline_parallel)
            * precision_bytes
        )
        # DP ranks are the outermost mapping dimension — they sit in
        # different nodes/blades, so the gradient all-reduce crosses the
        # inter-group fabric.
        dp_comm = all_reduce(
            "dp_grad_allreduce",
            grad_bytes,
            parallel.data_parallel,
            Phase.BACKWARD,
            spans_groups=True,
        )

    params_per_device = model.n_params / (tp * parallel.pipeline_parallel)
    update = (optimizer_step("adam_update", params_per_device),)

    return MappedTraining(
        model=model,
        system=system,
        parallel=parallel,
        batch=batch,
        seq_len=seq,
        precision_bytes=precision_bytes,
        stage_fwd_programs=tuple(stage_fwd),
        stage_bwd_programs=tuple(stage_bwd),
        p2p_bytes=p2p_bytes,
        n_microbatches=n_micro,
        dp_allreduce=dp_comm,
        update_ops=update,
    )


def map_inference(
    model: LLMConfig,
    system: SystemSpec,
    parallel: ParallelConfig | None = None,
    batch: int = 8,
    input_tokens: int = 200,
    output_tokens: int = 200,
    precision_bytes: float = 2.0,
) -> MappedInference:
    """Map an inference request onto ``system``.

    The paper's inference setup uses pure tensor parallelism ("the number of
    SPUs is the same as the TP degree"), which is the default when
    ``parallel`` is omitted.
    """
    require_positive("batch", batch)
    require_positive("input_tokens", input_tokens)
    require_positive("output_tokens", output_tokens)
    if parallel is None:
        parallel = ParallelConfig(tensor_parallel=system.n_accelerators)
    parallel.validate(model, system.n_accelerators, batch)
    if parallel.pipeline_parallel != 1 or parallel.data_parallel != 1:
        raise MappingError(
            "inference mapping supports tensor parallelism only "
            "(the paper's configuration)"
        )
    tp = parallel.tensor_parallel

    # Persistent footprints are annotated at their *total* size: the only
    # level above DRAM that could hold them is the blade-shared L2/JSRAM
    # pool (Sec. VI study and the JSRAM future-work study), and a shared
    # level must hold every device's shard at once.
    weight_resident = model.n_params * precision_bytes
    kv_resident = model.kv_cache_bytes(batch, bytes_per_element=precision_bytes)

    prefill_shape = LayerShape(
        n_tokens=batch * input_tokens,
        batch_seqs=batch,
        kv_len=input_tokens,
        tp=tp,
        bytes_per_element=precision_bytes,
    )

    def resident(ops: Sequence[Op]) -> tuple[Op, ...]:
        return tuple(_attach_residency(ops, weight_resident, kv_resident))

    def embedding_and_head(n_tokens: int, phase: Phase) -> tuple[Segment, Segment]:
        """The embedding and LM-head segments of a phase."""
        return (
            Segment(resident(embedding_ops(model, n_tokens, precision_bytes, phase))),
            Segment(resident(lm_head_ops(model, batch, tp, precision_bytes, phase))),
        )

    embedding, head = embedding_and_head(prefill_shape.n_tokens, Phase.PREFILL)
    layer = resident(layer_forward_ops(model, prefill_shape, Phase.PREFILL))
    prefill_program = OpProgram(
        (embedding, Segment(layer, repeat=model.n_layers), head)
    )

    # A decode step reads the context only in a layer's attention score,
    # softmax and context kernels.  Every other kernel, the embedding and
    # the LM head are built once here and shared by the decode programs of
    # all contexts.
    decode_shape = LayerShape(
        n_tokens=batch,
        batch_seqs=batch,
        kv_len=1,
        tp=tp,
        bytes_per_element=precision_bytes,
    )
    decode_embedding, decode_head = embedding_and_head(batch, Phase.DECODE)
    before, _, after = layer_forward_parts(model, decode_shape, Phase.DECODE)
    before, after = resident(before), resident(after)

    @functools.lru_cache(maxsize=_DECODE_PROGRAMS_PER_MAPPING)
    def decode_program_at(context: int) -> OpProgram:
        shape = dataclasses.replace(decode_shape, kv_len=max(1, context))
        attention = resident(attention_context_ops(model, shape, Phase.DECODE))
        return OpProgram(
            (
                decode_embedding,
                Segment(before + attention + after, repeat=model.n_layers),
                decode_head,
            )
        )

    return MappedInference(
        model=model,
        system=system,
        parallel=parallel,
        batch=batch,
        input_tokens=input_tokens,
        output_tokens=output_tokens,
        precision_bytes=precision_bytes,
        prefill_program=prefill_program,
        decode_program_at=decode_program_at,
    )


def _rebound(
    mapped: "MappedTraining | MappedInference", system: SystemSpec
) -> "MappedTraining | MappedInference":
    """``mapped`` bound to ``system``: a copy sharing every other field.

    The mapping was validated when it was built and ``system`` has its
    accelerator count, so the copy skips the constructor."""
    if mapped.system is system:
        return mapped
    copy = object.__new__(type(mapped))
    copy.__dict__.update(mapped.__dict__, system=system)
    return copy


class MappingCache:
    """Batch-level mapping dedup for sweeps.

    The op programs a mapping produces depend on the *workload* side only —
    model, parallel decomposition, batch, sequence/token counts, precision —
    plus the system's accelerator **count** (strategy validation and the
    default inference TP degree).  They do not depend on bandwidths,
    latencies, capacities or any other accelerator parameter.  A sweep whose
    points differ only in system parameters (the Fig. 5/7 bandwidth grids)
    can therefore map once and re-time per system: the cache memoizes the
    mapped workload and rebinds the ``system`` field per lookup, so derived
    capacity checks (``fits_memory``) still see the live system.

    Hit/miss counters expose the dedup for tests and diagnostics.  The cache
    is bounded LRU (``max_entries`` distinct mapping keys) and safe to share
    between threads: a miss builds outside the lock, and when two threads
    build one key at once both get the first entry stored.
    """

    def __init__(self, max_entries: int = 128) -> None:
        require_positive("max_entries", max_entries)
        self.max_entries = max_entries
        self._entries: "OrderedDict[tuple, MappedTraining | MappedInference]" = (
            OrderedDict()
        )
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def _lookup(self, key: tuple, build: Callable[[], "MappedTraining | MappedInference"]):
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                self.hits += 1
                return entry
        built = build()
        with self._lock:
            self.misses += 1
            entry = self._entries.setdefault(key, built)
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
        return entry

    def map_training(
        self,
        model: LLMConfig,
        system: SystemSpec,
        parallel: ParallelConfig,
        batch: int,
        seq_len: int | None = None,
        precision_bytes: float = 2.0,
        tp_overlap: float = 0.0,
    ) -> MappedTraining:
        """Memoized :func:`map_training`, rebound to ``system``."""
        key = (
            "training",
            model,
            parallel,
            batch,
            seq_len,
            precision_bytes,
            tp_overlap,
            system.n_accelerators,
        )
        mapped = self._lookup(
            key,
            lambda: map_training(
                model, system, parallel, batch, seq_len, precision_bytes, tp_overlap
            ),
        )
        return _rebound(mapped, system)

    def map_inference(
        self,
        model: LLMConfig,
        system: SystemSpec,
        parallel: ParallelConfig | None = None,
        batch: int = 8,
        input_tokens: int = 200,
        output_tokens: int = 200,
        precision_bytes: float = 2.0,
    ) -> MappedInference:
        """Memoized :func:`map_inference`, rebound to ``system``."""
        key = (
            "inference",
            model,
            parallel,
            batch,
            input_tokens,
            output_tokens,
            precision_bytes,
            system.n_accelerators,
        )
        mapped = self._lookup(
            key,
            lambda: map_inference(
                model,
                system,
                parallel,
                batch,
                input_tokens,
                output_tokens,
                precision_bytes,
            ),
        )
        return _rebound(mapped, system)

    # -- introspection -----------------------------------------------------
    @property
    def n_entries(self) -> int:
        """Distinct mappings currently cached."""
        return len(self._entries)

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the memo."""
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0

    def clear(self) -> None:
        """Drop all cached mappings and reset counters."""
        with self._lock:
            self._entries.clear()
            self.hits = 0
            self.misses = 0


#: Process-wide default shared by the scenario runner (and thus every sweep
#: point evaluated in this process).
_DEFAULT_MAPPING_CACHE = MappingCache()


def default_mapping_cache() -> MappingCache:
    """The process-wide shared mapping cache."""
    return _DEFAULT_MAPPING_CACHE


__all__ = [
    "OPTIMIZER_BYTES_PER_PARAM",
    "MappedTraining",
    "MappedInference",
    "MappingCache",
    "default_mapping_cache",
    "map_training",
    "map_inference",
]
