"""Collection ordering (paper §4).

The Collection Ordering Problem (COP) asks for the view order minimizing the
total size of the edge difference sets. COP is NP-hard (reduction from
consecutive block minimization, Theorem 4.1); Graphsurge uses the
CBMP 1.5-approximation of Haddadi & Layouni — pad a zero column, build the
complete graph of column Hamming distances, and run Christofides' TSP
heuristic — which yields a 3-approximation for COP.

This package implements the full pipeline (Algorithm 1) plus the exact and
greedy baselines used in tests and ablation benchmarks.
"""

from repro.core.ordering.problem import (
    diff_count_for_order,
    exact_best_order,
    random_order,
)
from repro.core.ordering.hamming import hamming_distance_matrix
from repro.core.ordering.christofides import christofides_tour
from repro.core.ordering.optimizer import order_collection

__all__ = [
    "diff_count_for_order",
    "exact_best_order",
    "random_order",
    "hamming_distance_matrix",
    "christofides_tour",
    "order_collection",
]
