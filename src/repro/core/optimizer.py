"""Parallelization-strategy search ("we assess the most optimal mapping").

Scores every valid (TP, PP, DP) decomposition of a training workload on a
system and ranks by time per batch — the mapping optimization the paper
performs before reporting results.

Each strategy is mapped through the process-wide
:class:`~repro.parallel.mapper.MappingCache`: a mapping depends only on the
workload, the strategy and the accelerator count, so a search on another
system of the same size (the next point of a sweep, another DSE spec)
re-times the cached mappings instead of building them again.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.arch.system import SystemSpec
from repro.core.model import Optimus
from repro.core.report import TrainingReport
from repro.errors import MappingError
from repro.parallel.mapper import default_mapping_cache
from repro.parallel.strategy import ParallelConfig, enumerate_strategies
from repro.workloads.llm import LLMConfig


@dataclass(frozen=True)
class StrategyResult:
    """One scored strategy."""

    parallel: ParallelConfig
    report: TrainingReport

    @property
    def time_per_batch(self) -> float:
        """Objective value (lower is better)."""
        return self.report.time_per_batch


def search_strategies(
    model: LLMConfig,
    system: SystemSpec,
    batch: int,
    seq_len: int | None = None,
    max_candidates: int = 64,
    require_fit: bool = False,
) -> list[StrategyResult]:
    """Evaluate all valid strategies, best (fastest) first.

    ``require_fit`` drops strategies whose static state exceeds device
    memory; ``max_candidates`` bounds the search for very large systems.
    Candidates that cannot be mapped are skipped.
    """
    optimus = Optimus(system)
    mapping_cache = default_mapping_cache()
    results: list[StrategyResult] = []
    for count, parallel in enumerate(
        enumerate_strategies(model, system.n_accelerators, batch)
    ):
        if count >= max_candidates:
            break
        try:
            mapped = mapping_cache.map_training(
                model, system, parallel, batch, seq_len
            )
        except MappingError:
            continue
        if require_fit and not mapped.fits_memory:
            continue
        results.append(
            StrategyResult(
                parallel=parallel,
                report=optimus.evaluate_training(mapped),
            )
        )
    if not results:
        raise MappingError(
            f"no valid parallelization strategy for {model.name} on "
            f"{system.n_accelerators} accelerators"
        )
    return sorted(results, key=lambda r: r.time_per_batch)


__all__ = ["StrategyResult", "search_strategies"]
