"""COP objective functions and exact/random baselines.

The objective ``diff_count_for_order`` is the quantity Definition 1
minimizes: the total number of edge differences generated by a column
order. Tests verify the paper's Theorem 4.1 identity
``ds(B_EBM, σ) = 4·cb(B, σ) − m01 + m0 + m1`` on the doubled matrix against
the CBMP objective ``cb``.
"""

from __future__ import annotations

import itertools
import random
from typing import List, Optional, Sequence

import numpy as np


def diff_count_for_order(matrix: np.ndarray,
                         order: Optional[Sequence[int]] = None) -> int:
    """Total edge differences induced by ``order`` (Definition 1).

    Row semantics (paper §3.2 step 3): one difference where the edge first
    appears, then one per 1→0 or 0→1 alternation afterwards.
    """
    m = np.asarray(matrix, dtype=np.int8)
    if order is not None:
        m = m[:, list(order)]
    if m.size == 0:
        return 0
    first = int(m[:, 0].sum())
    if m.shape[1] == 1:
        return first
    changes = int(np.abs(m[:, 1:] - m[:, :-1]).sum())
    return first + changes


#: The most views :func:`exact_best_order` will permute (9! orders).
MAX_EXACT_VIEWS = 9


def exact_best_order(matrix: np.ndarray) -> List[int]:
    """Brute-force the optimal COP order (small k only; tests/ablations)."""
    k = matrix.shape[1]
    if k > MAX_EXACT_VIEWS:
        raise ValueError(f"exact ordering is factorial; refusing "
                         f"k={k} > {MAX_EXACT_VIEWS}")
    best_order = list(range(k))
    best_cost = diff_count_for_order(matrix, best_order)
    for perm in itertools.permutations(range(k)):
        cost = diff_count_for_order(matrix, perm)
        if cost < best_cost:
            best_cost = cost
            best_order = list(perm)
    return best_order


def random_order(num_views: int, seed: int) -> List[int]:
    """A seeded random permutation (the paper's R1/R2/R3 baselines)."""
    rng = random.Random(seed)
    order = list(range(num_views))
    rng.shuffle(order)
    return order
