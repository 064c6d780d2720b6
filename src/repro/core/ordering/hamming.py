"""Pairwise column Hamming distances of the zero-padded EBM (Algorithm 1).

Following the paper's Algorithm 1, the edge rows are partitioned across the
W workers; each worker computes a partial distance matrix
``D_i = C_i^T (U − C_i) + (U − C_i)^T C_i`` over its row block ``C_i`` of
the padded matrix ``[0 | B]``, and worker 0 sums the partials. The padding
column turns the TSP *path* problem into a *tour* problem while preserving
approximation quality.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.timely.meter import WorkMeter


def hamming_distance_matrix(matrix: np.ndarray, workers: int = 1,
                            meter: Optional[WorkMeter] = None) -> np.ndarray:
    """Return the (k+1)x(k+1) distance matrix of ``[0 | matrix]`` columns.

    Column 0 of the result corresponds to the padded all-zero column; the
    remaining indices are the views shifted by one.
    """
    meter = meter or WorkMeter()
    m, k = matrix.shape
    padded = np.zeros((m, k + 1), dtype=np.int64)
    padded[:, 1:] = matrix.astype(np.int64)
    total = np.zeros((k + 1, k + 1), dtype=np.int64)
    workers = max(1, workers)
    blocks = np.array_split(np.arange(m), workers)
    for rows in blocks:
        block = padded[rows]
        complement = 1 - block
        total += block.T @ complement + complement.T @ block
    # Each worker touches its row block once per view pair; meter the
    # dominant matmul cost.
    meter.charge_step([int(rows.size) * (k + 1) for rows in blocks])
    return total
