"""§7.5 driver: algorithm-specific (GraphBolt-style) maintenance vs the
engine's black-box differential maintenance, PageRank and SSSP.

Prints the work-unit comparison recorded in EXPERIMENTS.md; the published
relative shape is: specialized PR ≫ differential PR, while differential
SSSP is competitive with (or beats) the specialized maintainer.

One configuration serves both ``quick`` and full runs: it takes about a
second, and the PR-gap-vs-SSSP-gap shape does not hold at every smaller
graph (at half size the SSSP gap exceeds a quarter of the PR gap).
"""

from __future__ import annotations

from typing import List

from repro.algorithms import BellmanFord, PageRank
from repro.baselines import IncrementalPageRank, IncrementalSssp
from repro.bench.harness import ExperimentResult, by_cell
from repro.bench.workloads import orkut_churn_collection
from repro.core.executor import AnalyticsExecutor, ExecutionMode


def _edge_changes(collection, index, weighted):
    additions, removals = [], []
    for (_eid, src, dst, weight), mult in collection.diffs[index].items():
        record = (src, dst, weight) if weighted else (src, dst)
        (additions if mult > 0 else removals).append(record)
    return additions, removals


def run(quick: bool = False) -> List[ExperimentResult]:
    collection = orkut_churn_collection(
        num_nodes=120, num_edges=600, num_views=12, additions_per_view=3,
        removals_per_view=3, seed=0, name="stream")
    source = min(s for (_e, s, _d, _w) in collection.diffs[0])
    executor = AnalyticsExecutor()

    pr_maintainer = IncrementalPageRank(iterations=8)
    for index in range(collection.num_views):
        pr_maintainer.apply_diff(
            *_edge_changes(collection, index, weighted=False))
    pr_differential = executor.run_on_collection(
        PageRank(iterations=8), collection, mode=ExecutionMode.DIFF_ONLY,
        cost_metric="work")

    sssp_maintainer = IncrementalSssp(source)
    for index in range(collection.num_views):
        sssp_maintainer.apply_diff(
            *_edge_changes(collection, index, weighted=True))
    sssp_differential = executor.run_on_collection(
        BellmanFord(source=source), collection,
        mode=ExecutionMode.DIFF_ONLY, cost_metric="work")

    print("\n== §7.5: specialized vs differential maintenance "
          "(work units) ==")
    print(f"{'algorithm':>10} {'specialized':>12} {'differential':>13} "
          f"{'diff/spec':>10}")
    rows: List[ExperimentResult] = []
    for name, specialized, differential in (
            ("PR", pr_maintainer.work, pr_differential.total_work),
            ("SSSP", sssp_maintainer.work, sssp_differential.total_work)):
        gap = differential / max(1, specialized)
        print(f"{name:>10} {specialized:>12} {differential:>13} "
              f"{gap:>10.2f}")
        rows.append(ExperimentResult(
            "baselines", "churn-stream", name, "specialized",
            "graphbolt-style", collection.num_views, 0.0, specialized, 0))
        rows.append(ExperimentResult(
            "baselines", "churn-stream", name, "differential", "diff-only",
            collection.num_views, 0.0, differential, 0))
    return rows


def check(rows: List[ExperimentResult]) -> List[str]:
    """Specialized PageRank maintenance beats differential by over 3x, and
    that gap is over 4x the SSSP one."""
    cell = by_cell(rows)
    gap = {name: cell[name, "differential", "diff-only"].work
           / max(1, cell[name, "specialized", "graphbolt-style"].work)
           for name in ("PR", "SSSP")}
    problems = []
    if not gap["PR"] > 3.0:
        problems.append(f"PR: differential/specialized {gap['PR']:.2f} is "
                        f"not above 3")
    if not gap["PR"] > 4 * gap["SSSP"]:
        problems.append(f"PR gap {gap['PR']:.2f} is not above 4 x the SSSP "
                        f"gap {gap['SSSP']:.2f}")
    return problems
