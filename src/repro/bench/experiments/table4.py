"""Table 4 (§7.4): #diffs and collection-creation time, optimizer order vs
random orders, on the community-perturbation collections.

Shape to reproduce: the Christofides order generates several-fold (paper:
3-17x) fewer differences than random orders. ``Id.`` is the order the
views are declared in (k-combinations in lexicographic order, already a
good order: consecutive views mostly swap one community), which the
optimizer must also beat. Creation time is printed but not checked: it is
one wall-clock sample per row, and the paper's 1.1-1.7x ordering overhead
is compared in EXPERIMENTS.md.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.bench.harness import ExperimentResult
from repro.bench.workloads import (
    default_lj_graph,
    default_wtc_graph,
    perturbation_collection,
)


def run(quick: bool = False) -> List[ExperimentResult]:
    scale = 0.5 if quick else 1.0
    datasets = [("LJ-like", default_lj_graph(scale=scale)),
                ("WTC-like", default_wtc_graph(scale=scale))]
    configs = [(7, 4)] if quick else [(10, 5), (7, 4)]
    rows: List[ExperimentResult] = []
    for ds_name, graph in datasets:
        for top_n, k in configs:
            variants = [("Ord.", "christofides", 0), ("Id.", "identity", 0)]
            variants += [(f"R{i}", "random", i) for i in (1, 2, 3)]
            print(f"\n== Table 4: {ds_name} {top_n}C{k} ==")
            print(f"{'order':8} {'#diffs':>12} {'CCT(s)':>10}")
            for label, method, seed in variants:
                collection = perturbation_collection(
                    graph, top_n, k, order_method=method, seed=seed)
                print(f"{label:8} {collection.total_diffs:>12} "
                      f"{collection.creation_seconds:>10.3f}")
                rows.append(ExperimentResult(
                    experiment="table4",
                    dataset=ds_name,
                    algorithm="(materialize)",
                    config=f"{top_n}C{k}:{label}",
                    mode=method,
                    num_views=collection.num_views,
                    wall_seconds=collection.creation_seconds,
                    work=collection.total_diffs,
                    parallel_time=0,
                ))
    return rows


def check(rows: List[ExperimentResult]) -> List[str]:
    """Per dataset and configuration, the Christofides order has fewer
    differences than the declared order and over 1.5x fewer than the best
    of the three random orders."""
    diffs: Dict[Tuple[str, str], Dict[str, int]] = {}
    for row in rows:
        size, label = row.config.split(":")
        diffs.setdefault((row.dataset, size), {})[label] = row.work
    problems = []
    for (dataset, size), by_order in diffs.items():
        ordered, declared = by_order.pop("Ord."), by_order.pop("Id.")
        best_random = min(by_order.values())
        if not ordered < declared:
            problems.append(f"{dataset} {size}: Ord. #diffs {ordered} is not "
                            f"below the declared order's {declared}")
        if not best_random > 1.5 * ordered:
            problems.append(f"{dataset} {size}: Ord. #diffs {ordered} is not "
                            f"1.5x below the best random order's "
                            f"{best_random}")
    return problems
