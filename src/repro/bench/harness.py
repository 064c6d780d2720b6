"""Grid runner, paper-style table printing and row lookup for the
experiments' shape checks."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.computation import GraphComputation
from repro.core.executor import (
    AnalyticsExecutor,
    CollectionRunResult,
    ExecutionMode,
)
from repro.core.view_collection import MaterializedCollection

ALL_MODES = (ExecutionMode.DIFF_ONLY, ExecutionMode.SCRATCH,
             ExecutionMode.ADAPTIVE)


@dataclass
class ExperimentResult:
    """One (collection, computation, mode) measurement."""

    experiment: str
    dataset: str
    algorithm: str
    config: str
    mode: str
    num_views: int
    wall_seconds: float
    work: int
    parallel_time: int
    splits: int = 0
    extra: Dict[str, object] = field(default_factory=dict)


def run_modes(computation_factory: Callable[[], GraphComputation],
              collection: MaterializedCollection,
              modes: Sequence[ExecutionMode] = ALL_MODES,
              workers: int = 1, batch_size: int = 10
              ) -> Dict[ExecutionMode, CollectionRunResult]:
    """Run one computation over one collection under several modes.

    A fresh executor and computation instance per mode keep runs
    independent; the adaptive splitter decides on metered work, so the
    tables are deterministic.
    """
    results: Dict[ExecutionMode, CollectionRunResult] = {}
    for mode in modes:
        executor = AnalyticsExecutor(workers=workers)
        results[mode] = executor.run_on_collection(
            computation_factory(), collection, mode=mode,
            batch_size=batch_size, cost_metric="work")
    return results


def to_rows(results: Dict[ExecutionMode, CollectionRunResult],
            experiment: str, dataset: str, config: str, **extra_fields
            ) -> List[ExperimentResult]:
    """One row per mode; ``extra`` holds the split points and any
    ``extra_fields`` the caller adds."""
    rows = []
    for mode, result in results.items():
        extra: Dict[str, object] = {"split_points": list(result.split_points),
                                    **extra_fields}
        rows.append(ExperimentResult(
            experiment=experiment,
            dataset=dataset,
            algorithm=result.computation,
            config=config,
            mode=mode.value,
            num_views=len(result.views),
            wall_seconds=result.total_wall_seconds,
            work=result.total_work,
            parallel_time=result.total_parallel_time,
            splits=len(result.split_points),
            extra=extra,
        ))
    return rows


def print_table(rows: Iterable[ExperimentResult],
                title: Optional[str] = None) -> None:
    """Print rows as a fixed-width table, paper style."""
    rows = list(rows)
    if title:
        print(f"\n== {title} ==")
    if not rows:
        print("(no rows)")
        return
    headers = ["dataset", "algorithm", "config", "mode", "views",
               "wall(s)", "work", "par.time", "splits"]
    table = [[r.dataset, r.algorithm, r.config, r.mode, str(r.num_views),
              f"{r.wall_seconds:.2f}", str(r.work), str(r.parallel_time),
              str(r.splits)] for r in rows]
    widths = [max(len(h), *(len(line[i]) for line in table))
              for i, h in enumerate(headers)]
    def render(line):
        return "  ".join(cell.ljust(w) for cell, w in zip(line, widths))
    print(render(headers))
    print(render(["-" * w for w in widths]))
    for line in table:
        print(render(line))


def by_cell(rows: Iterable[ExperimentResult]
            ) -> Dict[Tuple[str, str, str], ExperimentResult]:
    """Rows keyed by ``(algorithm, config, mode)``, for shape checks."""
    return {(row.algorithm, row.config, row.mode): row for row in rows}
