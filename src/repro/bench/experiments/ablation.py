"""Ablations of Graphsurge's design choices (DESIGN.md §6).

Not a paper table; prints five studies:

1. splitting batch size ℓ (the paper defaults to 10) on C_aut;
2. PageRank quantization (our stand-in for a convergence tolerance);
3. ordering algorithm quality: Christofides vs greedy vs random vs exact;
4. splitting batch size ℓ on a uniformly similar churn collection;
5. §5's best case, k identical views: diff-only pays for one view.
"""

from __future__ import annotations

import random
from typing import List

import numpy as np

from repro.algorithms import PageRank, Wcc
from repro.bench.harness import ExperimentResult, by_cell, run_modes, to_rows
from repro.bench.workloads import caut_collection, orkut_churn_collection
from repro.core.executor import AnalyticsExecutor, ExecutionMode
from repro.core.ordering.optimizer import order_collection
from repro.core.view_collection import collection_from_diffs
from repro.datasets import citations_like

IDENTICAL_VIEWS = (4, 8, 16)


def identical_collection(k: int):
    """k copies of one 500-edge random graph."""
    rng = random.Random(0)
    edges = {}
    while len(edges) < 500:
        u, v = rng.randrange(150), rng.randrange(150)
        if u != v:
            edges[(len(edges), u, v, 1)] = 1
    return collection_from_diffs(f"identical-{k}",
                                 [edges] + [{} for _ in range(k - 1)])


def run(quick: bool = False) -> List[ExperimentResult]:
    scale = 0.5 if quick else 1.0
    rows: List[ExperimentResult] = []
    executor = AnalyticsExecutor()

    # -- 1. splitting batch size --------------------------------------------
    caut = caut_collection(citations_like(
        num_nodes=int(400 * scale), num_edges=int(1600 * scale), seed=0))
    print("\n== Ablation 1: adaptive batch size ℓ on C_aut (WCC) ==")
    print(f"{'ℓ':>4} {'work':>10} {'splits':>7}")
    for batch in (1, 2, 5, 10):
        result = executor.run_on_collection(
            Wcc(), caut, mode=ExecutionMode.ADAPTIVE, batch_size=batch,
            cost_metric="work")
        print(f"{batch:>4} {result.total_work:>10} "
              f"{len(result.split_points):>7}")
        rows.append(ExperimentResult(
            "ablation", "pc-like", "WCC", f"batch={batch}", "adaptive",
            caut.num_views, result.total_wall_seconds, result.total_work,
            result.total_parallel_time, len(result.split_points)))

    # -- 2. PageRank quantization ---------------------------------------------
    churn = orkut_churn_collection(
        num_nodes=int(120 * scale), num_edges=int(600 * scale),
        num_views=8 if quick else 16, additions_per_view=2,
        removals_per_view=2, seed=3)
    print("\n== Ablation 2: PageRank quantum (differential work) ==")
    print(f"{'quantum':>8} {'work':>12}")
    for quantum in (100, 1_000, 10_000):
        result = executor.run_on_collection(
            PageRank(iterations=6, quantum=quantum), churn,
            mode=ExecutionMode.DIFF_ONLY, cost_metric="work")
        print(f"{quantum:>8} {result.total_work:>12}")
        rows.append(ExperimentResult(
            "ablation", "orkut-like", "PR", f"quantum={quantum}",
            "diff-only", churn.num_views, result.total_wall_seconds,
            result.total_work, result.total_parallel_time))

    # -- 3. ordering quality ------------------------------------------------------
    rng = np.random.default_rng(0)
    matrix = rng.random((int(2000 * scale), 20)) < 0.45
    small = rng.random((300, 7)) < 0.4
    print("\n== Ablation 3: ordering method quality (#diffs) ==")
    print(f"{'method':>14} {'#diffs':>10} {'seconds':>9}")
    for method in ("christofides", "greedy", "random", "identity"):
        result = order_collection(matrix, method=method, seed=1)
        print(f"{method:>14} {result.diff_count:>10} "
              f"{result.elapsed_seconds:>9.3f}")
        rows.append(ExperimentResult(
            "ablation", "synthetic-ebm", "(ordering)", method, "-",
            matrix.shape[1], result.elapsed_seconds, result.diff_count, 0))
    random_mean = int(np.mean([
        order_collection(matrix, method="random", seed=seed).diff_count
        for seed in range(5)]))
    print(f"{'random (5 avg)':>14} {random_mean:>10}")
    rows.append(ExperimentResult(
        "ablation", "synthetic-ebm", "(ordering)", "random-mean-of-5", "-",
        matrix.shape[1], 0.0, random_mean, 0))
    exact = order_collection(small, method="exact")
    christofides_small = order_collection(small, method="christofides")
    for method, result in (("exact", exact),
                           ("christofides", christofides_small)):
        rows.append(ExperimentResult(
            "ablation", "synthetic-ebm", "(ordering)", f"small:{method}",
            "-", small.shape[1], result.elapsed_seconds, result.diff_count,
            0))
    ratio = christofides_small.diff_count / max(1, exact.diff_count)
    print(f"small-instance approximation ratio vs exact: {ratio:.3f} "
          f"(guarantee: <= 3)")

    # -- 4. batch size on a uniformly similar collection ------------------------
    print("\n== Ablation 4: adaptive batch size ℓ on the churn collection "
          "(WCC) ==")
    print(f"{'ℓ':>4} {'work':>10} {'splits':>7}")
    for batch in (1, 10):
        result = executor.run_on_collection(
            Wcc(), churn, mode=ExecutionMode.ADAPTIVE, batch_size=batch,
            cost_metric="work")
        print(f"{batch:>4} {result.total_work:>10} "
              f"{len(result.split_points):>7}")
        rows.append(ExperimentResult(
            "ablation", "orkut-like", "WCC", f"churn:batch={batch}",
            "adaptive", churn.num_views, result.total_wall_seconds,
            result.total_work, result.total_parallel_time,
            len(result.split_points)))

    # -- 5. identical views ---------------------------------------------------------
    print("\n== Ablation 5: k identical views, scratch/diff-only work (WCC) ==")
    print(f"{'k':>4} {'factor':>8}")
    for k in IDENTICAL_VIEWS:
        results = run_modes(Wcc, identical_collection(k), modes=(
            ExecutionMode.DIFF_ONLY, ExecutionMode.SCRATCH))
        diff, scratch = to_rows(results, "ablation", "random",
                                f"identical:k={k}")
        print(f"{k:>4} {scratch.work / max(1, diff.work):>8.2f}")
        rows += [diff, scratch]
    return rows


def check(rows: List[ExperimentResult]) -> List[str]:
    """ℓ = 1 is no worse than ℓ = 10 on C_aut and within 20 % of it on the
    similar churn; a coarser PageRank quantum does less work; Christofides
    is within 1.1x of greedy, below the mean of five random orders and
    within 3x of exact on the small instance; k identical views cost
    diff-only over 0.9·k times less than scratch."""
    cell = by_cell(rows)

    def work(algorithm: str, config: str, mode: str) -> int:
        return cell[algorithm, config, mode].work

    problems = []
    fine, coarse = (work("WCC", f"batch={b}", "adaptive") for b in (1, 10))
    if not fine <= coarse:
        problems.append(f"C_aut: ℓ=1 work {fine} is above ℓ=10's {coarse}")
    fine, coarse = (work("WCC", f"churn:batch={b}", "adaptive")
                    for b in (1, 10))
    if not abs(fine - coarse) <= 0.2 * max(fine, coarse):
        problems.append(f"churn: ℓ=1 work {fine} and ℓ=10 work {coarse} "
                        f"differ by more than 20 %")
    coarse, fine = (work("PR", f"quantum={q}", "diff-only")
                    for q in (10_000, 100))
    if not coarse < fine:
        problems.append(f"PR: quantum 10000 work {coarse} is not below "
                        f"quantum 100's {fine}")
    ours, greedy, random_mean, small, exact = (
        work("(ordering)", method, "-") for method in (
            "christofides", "greedy", "random-mean-of-5",
            "small:christofides", "small:exact"))
    if not ours <= 1.1 * greedy:
        problems.append(f"ordering: Christofides #diffs {ours} exceeds "
                        f"1.1 x greedy's {greedy}")
    if not ours < random_mean:
        problems.append(f"ordering: Christofides #diffs {ours} is not below "
                        f"the random mean {random_mean}")
    if not small <= 3 * exact:
        problems.append(f"ordering: Christofides #diffs {small} exceeds "
                        f"3 x exact {exact} on the small instance")
    for k in IDENTICAL_VIEWS:
        config = f"identical:k={k}"
        factor = (work("WCC", config, "scratch")
                  / max(1, work("WCC", config, "diff-only")))
        if not factor > 0.9 * k:
            problems.append(f"{k} identical views: scratch/diff-only "
                            f"{factor:.2f} is not above {0.9 * k:.1f}")
    return problems
