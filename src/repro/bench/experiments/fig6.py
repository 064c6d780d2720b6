"""Figure 6 (§7.2): benefits of diff-only on similar collections (C_sim).

A 5-year Stack-Overflow window expanded per view by w ∈ {1mo ... 2y};
smaller w ⇒ more, more-similar views ⇒ growing diff-only advantage for the
stable algorithms (WCC, BFS, SCC), with PageRank the noted exception.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

from repro.algorithms import Bfs, PageRank, Scc, Wcc
from repro.bench.harness import (
    ExperimentResult,
    by_cell,
    print_table,
    run_modes,
    to_rows,
)
from repro.bench.workloads import CSIM_WINDOWS, csim_collection, default_so_graph

ALGORITHMS: Tuple[Tuple[str, Callable], ...] = (
    ("WCC", Wcc),
    ("BFS", Bfs),
    ("SCC", Scc),
    ("PR", lambda: PageRank(iterations=8)),
)


def window_grid(experiment: str, make_collection, windows: Dict[str, int],
                quick: bool, batch_size: int = 10) -> List[ExperimentResult]:
    """Every algorithm × mode on one window collection per ``windows``
    entry (Figures 6 and 7); ``batch_size`` is the adaptive splitter's ℓ.
    ``quick`` shrinks the graph to 0.3 so that SCC and PageRank stay in
    the grid within the quick time budget."""
    graph = default_so_graph(scale=0.3 if quick else 1.0)
    rows: List[ExperimentResult] = []
    for label, seconds in windows.items():
        collection = make_collection(graph, seconds,
                                     max_views=12 if quick else 48,
                                     name=f"{experiment}-{label}")
        for name, factory in ALGORITHMS:
            results = run_modes(factory, collection, batch_size=batch_size)
            rows.extend(to_rows(
                results, experiment, "so-like",
                f"w={label},k={collection.num_views}"))
    return rows


def run(quick: bool = False) -> List[ExperimentResult]:
    windows = CSIM_WINDOWS
    if quick:
        windows = {k: CSIM_WINDOWS[k] for k in ("6mo", "2y")}
    rows = window_grid("fig6", csim_collection, windows, quick)
    print_table(rows, "Figure 6: runtime on expanding-window collections "
                      "(C_sim)")
    return rows


def check(rows: List[ExperimentResult]) -> List[str]:
    """WCC's diff-only advantage exists at every window and is larger at
    the narrowest window than at the widest; on the narrowest window
    adaptive lands within 25 % of the better policy for BFS."""
    cell = by_cell(rows)
    configs = list(dict.fromkeys(row.config for row in rows))
    factors = {config: cell["WCC", config, "scratch"].work
               / max(1, cell["WCC", config, "diff-only"].work)
               for config in configs}
    problems = [f"WCC at {config}: scratch/diff-only {factor:.2f} is not "
                f"above 1" for config, factor in factors.items()
                if not factor > 1.0]
    narrow, wide = configs[0], configs[-1]
    if not factors[narrow] > factors[wide]:
        problems.append(f"WCC: scratch/diff-only at {narrow} "
                        f"({factors[narrow]:.2f}) is not above {wide} "
                        f"({factors[wide]:.2f})")
    best = min(cell["BFS", narrow, mode].work
               for mode in ("diff-only", "scratch"))
    adaptive = cell["BFS", narrow, "adaptive"].work
    if not adaptive <= 1.25 * best:
        problems.append(f"BFS at {narrow}: adaptive work {adaptive} exceeds "
                        f"1.25 x the better policy's {best}")
    return problems
