"""Table 2 (§5): diff-only vs scratch for Bellman-Ford and PageRank on two
random-churn collections over an Orkut-like graph.

Paper shape to reproduce: on the *similar* collection (tiny churn) both
algorithms prefer diff-only; on the *dissimilar* collection (massive churn)
Bellman-Ford still prefers diff-only but PageRank — the unstable
computation — prefers scratch.
"""

from __future__ import annotations

from typing import List

from repro.algorithms import BellmanFord, PageRank
from repro.bench.harness import (
    ExperimentResult,
    by_cell,
    print_table,
    run_modes,
    to_rows,
)
from repro.bench.workloads import orkut_churn_collection
from repro.core.executor import ExecutionMode

MODES = (ExecutionMode.DIFF_ONLY, ExecutionMode.SCRATCH)
LABELS = ("1K-like", "3.5M-like")


def run(quick: bool = False) -> List[ExperimentResult]:
    scale = 0.5 if quick else 1.0
    nodes = int(300 * scale)
    edges = int(1500 * scale)
    views = 8 if quick else 20
    # The paper's C_1K churns ±500 edges of 10M (0.005%) per view; C_3.5M
    # churns +2M/-1.5M (~35%). Proportional analogues at our scale:
    similar = orkut_churn_collection(
        num_nodes=nodes, num_edges=edges, num_views=views,
        additions_per_view=max(1, edges // 750),
        removals_per_view=max(1, edges // 750),
        seed=0, name="C-small")
    dissimilar = orkut_churn_collection(
        num_nodes=nodes, num_edges=edges, num_views=views,
        additions_per_view=int(edges * 0.20),
        removals_per_view=int(edges * 0.15),
        seed=1, name="C-large")
    rows: List[ExperimentResult] = []
    for collection, label in zip((similar, dissimilar), LABELS):
        for factory in (BellmanFord, lambda: PageRank(iterations=8)):
            results = run_modes(factory, collection, modes=MODES)
            rows.extend(to_rows(results, "table2", "orkut-like", label))
    print_table(rows, "Table 2: diff-only vs scratch (similar vs dissimilar "
                      "churn)")
    return rows


def check(rows: List[ExperimentResult]) -> List[str]:
    """Bellman-Ford prefers diff-only on both collections; PageRank prefers
    scratch on the dissimilar one."""
    cell = by_cell(rows)
    problems = []
    for label in LABELS:
        diff = cell["BF", label, "diff-only"].work
        scratch = cell["BF", label, "scratch"].work
        if not diff < scratch:
            problems.append(f"BF on {label}: diff-only work {diff} is not "
                            f"below scratch {scratch}")
    diff = cell["PR", "3.5M-like", "diff-only"].work
    scratch = cell["PR", "3.5M-like", "scratch"].work
    if not scratch < diff:
        problems.append(f"PR on 3.5M-like: scratch work {scratch} is not "
                        f"below diff-only {diff}")
    return problems
