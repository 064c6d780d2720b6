"""Figure 7 (§7.2): benefits of scratch on non-overlapping collections
(C_no).

Fully disjoint sliding windows: scratch should win by a bounded factor
(≤ ~2.5x in the paper) that does *not* grow with the number of views —
the robustness property of differential computation discussed in §5.
"""

from __future__ import annotations

from typing import List

from repro.bench.experiments.fig6 import window_grid
from repro.bench.harness import ExperimentResult, by_cell, print_table
from repro.bench.workloads import CNO_WINDOWS, cno_collection


def run(quick: bool = False) -> List[ExperimentResult]:
    windows = CNO_WINDOWS
    if quick:
        windows = {k: CNO_WINDOWS[k] for k in ("1y", "4y")}
    # ℓ=1: with ℓ=10 one decision at view 2 would cover ten of at most 16
    # views, and the check reads adaptive's per-view choices.
    rows = window_grid("fig7", cno_collection, windows, quick, batch_size=1)
    print_table(rows, "Figure 7: runtime on non-overlapping collections "
                      "(C_no)")
    return rows


def check(rows: List[ExperimentResult]) -> List[str]:
    """WCC: scratch wins at every window, by less than 6x (our Python
    engine's constant; the paper measures ≤ 2.5x), and the factor grows
    far slower than the view count; adaptive runs all but at most two
    views from scratch."""
    cell = by_cell(rows)
    configs = list(dict.fromkeys(row.config for row in rows))
    factors = {config: cell["WCC", config, "diff-only"].work
               / max(1, cell["WCC", config, "scratch"].work)
               for config in configs}
    problems = [f"WCC at {config}: diff-only/scratch {factor:.2f} is "
                f"outside (1, 6)" for config, factor in factors.items()
                if not 1.0 < factor < 6.0]
    many, few = configs[0], configs[-1]
    views_many = cell["WCC", many, "scratch"].num_views
    views_few = cell["WCC", few, "scratch"].num_views
    if not factors[many] / factors[few] < views_many / views_few:
        problems.append(f"WCC: diff-only/scratch grows from {few} to {many} "
                        f"as fast as the view count ({factors[few]:.2f} -> "
                        f"{factors[many]:.2f})")
    for config in configs:
        adaptive = cell["WCC", config, "adaptive"]
        # split points are the views after the first run from scratch
        if not adaptive.splits + 1 >= adaptive.num_views - 2:
            problems.append(f"WCC at {config}: adaptive ran only "
                            f"{adaptive.splits + 1} of {adaptive.num_views} "
                            f"views from scratch")
    return problems
