"""Experiment drivers, one per table/figure of the paper.

Run from the command line::

    python -m repro.bench table2
    python -m repro.bench fig6 --quick
    python -m repro.bench all

Every experiment module exposes ``run(quick=False) -> list[ExperimentResult]``,
which prints the same rows/series the paper reports (scaled to the
synthetic datasets — see EXPERIMENTS.md for the paper-vs-measured record),
and ``check(rows) -> list[str]``, which names every paper shape the rows
break (empty when all hold). ``quick`` is the only size switch.
"""

from repro.bench.experiments import (
    ablation,
    baselines,
    fig6,
    fig7,
    fig8,
    fig9,
    fig10,
    table2,
    table3,
    table4,
)

#: Experiment id -> module, in paper order.
EXPERIMENTS = {module.__name__.rsplit(".", 1)[1]: module for module in (
    table2, fig6, fig7, table3, table4, fig8, fig9, fig10, ablation,
    baselines)}

__all__ = ["EXPERIMENTS"]
