"""Table 3 (§7.3): adaptive splitting on three citation-graph collections.

C_sl (sliding decades), C_ex-sh-sl (expand/shrink/slide), C_aut (year x
author-count product). Shape to reproduce: adaptive matches or beats the
better of diff-only/scratch; on C_aut it beats *both* by splitting exactly
where the year window slides.
"""

from __future__ import annotations

from typing import List

from repro.algorithms import Bfs, PageRank, Scc, Wcc
from repro.bench.harness import (
    ExperimentResult,
    by_cell,
    print_table,
    run_modes,
    to_rows,
)
from repro.bench.workloads import (
    caut_collection,
    cex_sh_sl_collection,
    csl_collection,
    default_pc_graph,
)

ALGORITHMS = (
    ("WCC", Wcc),
    ("BFS", Bfs),
    ("SCC", Scc),
    ("PR", lambda: PageRank(iterations=8)),
)
CAUT = "3:C_aut"


def run(quick: bool = False) -> List[ExperimentResult]:
    graph = default_pc_graph(scale=0.5 if quick else 1.0)
    collections = [
        ("1:C_sl", csl_collection(graph)),
        ("2:C_ex-sh-sl", cex_sh_sl_collection(graph)),
        (CAUT, caut_collection(graph)),
    ]
    algorithms = ALGORITHMS[:2] if quick else ALGORITHMS
    rows: List[ExperimentResult] = []
    for label, collection in collections:
        for name, factory in algorithms:
            # Batch size 1 lets the splitter react to every view; the
            # collections here are small (16-25 views) so the paper's
            # ℓ=10 default would mask the split points.
            results = run_modes(factory, collection, batch_size=1)
            rows.extend(to_rows(results, "table3", "pc-like", label))
    print_table(rows, "Table 3: adaptive splitting on citation collections")
    return rows


def check(rows: List[ExperimentResult]) -> List[str]:
    """Adaptive is within 1.35x of the better policy everywhere (the
    warm-up views are the tolerance) and beats both on C_aut, where WCC
    splits mostly at the year-window slides (every 5th view)."""
    cell = by_cell(rows)
    problems = []
    for (algorithm, config, mode), row in cell.items():
        if mode != "adaptive":
            continue
        best = min(cell[algorithm, config, "diff-only"].work,
                   cell[algorithm, config, "scratch"].work)
        if config == CAUT and not row.work < best:
            problems.append(f"{algorithm} on {config}: adaptive work "
                            f"{row.work} does not beat both policies "
                            f"(better: {best})")
        elif not row.work <= 1.35 * best:
            problems.append(f"{algorithm} on {config}: adaptive work "
                            f"{row.work} exceeds 1.35 x the better "
                            f"policy's {best}")
    splits = cell["WCC", CAUT, "adaptive"].extra["split_points"]
    if not splits or 2 * sum(s % 5 == 0 for s in splits) < len(splits):
        problems.append(f"WCC on {CAUT}: split points {splits} are not "
                        f"mostly at the year slides (multiples of 5)")
    return problems
