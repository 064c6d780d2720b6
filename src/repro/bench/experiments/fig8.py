"""Figure 8 (§7.4): runtime benefit of collection ordering on the LJ-like
graph — WCC, BFS, MPSP under the optimizer's order vs random orders, with
the adaptive splitter off (diff-only) and on.

Shape to reproduce: the optimizer's order beats random orders consistently
(paper: 1.7x-37x); turning adaptive splitting on narrows but does not
erase the gap (except MPSP, where it widens).
"""

from __future__ import annotations

import random
from typing import Callable, List, Sequence, Tuple

from repro.algorithms import Bfs, Mpsp, Wcc
from repro.bench.harness import (
    ExperimentResult,
    by_cell,
    print_table,
    run_modes,
    to_rows,
)
from repro.bench.workloads import default_lj_graph, perturbation_collection
from repro.core.executor import ExecutionMode
from repro.graph.property_graph import PropertyGraph

MODES = (ExecutionMode.DIFF_ONLY, ExecutionMode.ADAPTIVE)


def mpsp_pairs(graph: PropertyGraph):
    """The paper's MPSP setup: src = first vertex with an outgoing edge,
    five dsts drawn (seed 0) among the others."""
    rng = random.Random(0)
    src = min(edge.src for edge in graph.edges)
    others = [v for v in sorted(graph.nodes) if v != src]
    return [(src, rng.choice(others)) for _ in range(5)]


def algorithms(graph: PropertyGraph) -> Tuple[Tuple[str, Callable], ...]:
    pairs = mpsp_pairs(graph)
    return (
        ("WCC", Wcc),
        ("BFS", Bfs),
        ("MPSP", lambda: Mpsp(pairs)),
    )


def run_for_graph(graph: PropertyGraph, dataset: str, experiment: str,
                  configs: List[Tuple[int, int]],
                  random_orders: int = 2) -> List[ExperimentResult]:
    rows: List[ExperimentResult] = []
    for top_n, k in configs:
        orderings = [("Ord.", "christofides", 0)]
        orderings += [(f"R{i}", "random", i)
                      for i in range(1, random_orders + 1)]
        for label, method, seed in orderings:
            collection = perturbation_collection(
                graph, top_n, k, order_method=method, seed=seed)
            for name, factory in algorithms(graph):
                # ℓ=1 as in Table 3: these collections have 10-20 views,
                # and with ℓ=10 one decision at view 2 covers ten of them.
                results = run_modes(factory, collection, modes=MODES,
                                    batch_size=1)
                rows.extend(to_rows(
                    results, experiment, dataset, f"{top_n}C{k}:{label}",
                    total_diffs=collection.total_diffs))
    return rows


def check_orderings(rows: List[ExperimentResult],
                    algorithms: Sequence[str]) -> List[str]:
    """Per configuration and random order R: the optimizer's order has
    fewer #Diffs and costs ``algorithms`` less diff-only work than R, and
    adaptive splitting softens R for WCC: it splits at least once and
    stays within 1.1x of diff-only."""
    cell = by_cell(rows)
    problems = []
    for config in dict.fromkeys(row.config for row in rows):
        size, label = config.split(":")
        if label == "Ord.":
            continue
        ordered = f"{size}:Ord."
        ours, theirs = (cell["WCC", c, "diff-only"].extra["total_diffs"]
                        for c in (ordered, config))
        if not ours < theirs:
            problems.append(f"{size}: Ord. #diffs {ours} is not below "
                            f"{label}'s {theirs}")
        for name in algorithms:
            ours, theirs = (cell[name, c, "diff-only"].work
                            for c in (ordered, config))
            if not ours < theirs:
                problems.append(f"{name} {size}: diff-only work on Ord. "
                                f"({ours}) is not below {label}'s ({theirs})")
        diff_only, adaptive = (cell["WCC", config, mode].work
                               for mode in ("diff-only", "adaptive"))
        if not cell["WCC", config, "adaptive"].splits:
            problems.append(f"WCC on {config}: adaptive never split")
        if not adaptive <= 1.1 * diff_only:
            problems.append(f"WCC on {config}: adaptive work {adaptive} "
                            f"exceeds 1.1 x diff-only's {diff_only}")
    return problems


def run(quick: bool = False) -> List[ExperimentResult]:
    graph = default_lj_graph(scale=0.4 if quick else 0.6)
    configs = [(5, 2)] if quick else [(6, 3), (5, 2)]
    rows = run_for_graph(graph, "LJ-like", "fig8", configs,
                         random_orders=1 if quick else 2)
    print_table(rows, "Figure 8: ordering benefits on the LJ-like graph "
                      "(adaptive off = diff-only vs on = adaptive)")
    return rows


def check(rows: List[ExperimentResult]) -> List[str]:
    return check_orderings(rows, ("WCC", "BFS", "MPSP"))
