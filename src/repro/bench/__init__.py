"""Benchmark harness reproducing every table and figure of the paper.

Structure:

* :mod:`repro.bench.workloads` — builders for each experiment's view
  collections (verbatim translations of the paper's definitions at
  engine-appropriate scale).
* :mod:`repro.bench.harness` — grid runner + paper-style table printing.
* :mod:`repro.bench.experiments` — one module per table/figure, each with
  the shape checks for its rows; run them with
  ``python -m repro.bench <experiment>`` (e.g. ``table2``, ``fig6``), which
  exits 1 when a shape breaks.
"""

from repro.bench.harness import ExperimentResult, print_table, run_modes

__all__ = ["ExperimentResult", "print_table", "run_modes"]
