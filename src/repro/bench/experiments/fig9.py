"""Figure 9 (§7.4): same grid as Figure 8, on the WTC-like graph."""

from __future__ import annotations

from typing import List

from repro.bench.experiments.fig8 import check_orderings, run_for_graph
from repro.bench.harness import ExperimentResult, print_table
from repro.bench.workloads import default_wtc_graph


def run(quick: bool = False) -> List[ExperimentResult]:
    graph = default_wtc_graph(scale=0.4 if quick else 0.6)
    configs = [(5, 2)] if quick else [(6, 3), (5, 2)]
    rows = run_for_graph(graph, "WTC-like", "fig9", configs,
                         random_orders=1 if quick else 2)
    print_table(rows, "Figure 9: ordering benefits on the WTC-like graph "
                      "(adaptive off = diff-only vs on = adaptive)")
    return rows


def check(rows: List[ExperimentResult]) -> List[str]:
    """As Figure 8, with the work ordering required of WCC only: at quick
    scale a random order can tie the optimizer's on MPSP."""
    return check_orderings(rows, ("WCC",))
