"""Pairwise column Hamming distances of the zero-padded EBM (Algorithm 1).

Following the paper's Algorithm 1, the edge rows are partitioned across the
W workers; each worker computes a partial distance matrix over its row
block ``C_i`` of the padded matrix ``[0 | B]``, and worker 0 sums the
partials. A block is packed into bits along its rows, so each column is a
run of 64-bit words, and a partial entry is the population count of two
columns' XORed words. The padding column turns the TSP *path* problem into
a *tour* problem while preserving approximation quality.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.timely.meter import WorkMeter

#: Most 64-bit words one vector pass XORs: it bounds the temporary to
#: 8 MiB whatever the block size.
_CHUNK_WORDS = 1 << 20


def _packed_columns(block: np.ndarray) -> np.ndarray:
    """``block``'s columns as rows of uint64 words (zero-padded bits)."""
    packed = np.packbits(block, axis=0).T
    words = -(-packed.shape[1] // 8)
    padded = np.zeros((packed.shape[0], 8 * words), dtype=np.uint8)
    padded[:, :packed.shape[1]] = packed
    return padded.view(np.uint64)


def _partial_distances(block: np.ndarray) -> np.ndarray:
    """One worker's partial matrix: per column pair, the number of rows of
    ``block`` where the two columns differ."""
    columns = _packed_columns(block)
    n, words = columns.shape
    partial = np.zeros((n, n), dtype=np.int64)
    step = max(1, _CHUNK_WORDS // max(1, n * words))
    for start in range(0, n, step):
        xored = columns[start:start + step, None, :] ^ columns[None, :, :]
        # Sum as int64: the default uint64 sum would turn the int64
        # total into floats.
        partial[start:start + step] = np.bitwise_count(xored).sum(
            axis=2, dtype=np.int64)
    return partial


def hamming_distance_matrix(matrix: np.ndarray, workers: int = 1,
                            meter: Optional[WorkMeter] = None) -> np.ndarray:
    """Return the (k+1)x(k+1) distance matrix of ``[0 | matrix]`` columns.

    Column 0 of the result corresponds to the padded all-zero column; the
    remaining indices are the views shifted by one.
    """
    meter = meter or WorkMeter()
    m, k = matrix.shape
    padded = np.zeros((m, k + 1), dtype=bool)
    padded[:, 1:] = matrix
    total = np.zeros((k + 1, k + 1), dtype=np.int64)
    blocks = np.array_split(np.arange(m), max(1, workers))
    for rows in blocks:
        total += _partial_distances(padded[rows])
    # Each worker touches its row block once per view: m·(k+1) in total,
    # ⌈m/W⌉·(k+1) on the longest block.
    meter.charge_step([int(rows.size) * (k + 1) for rows in blocks])
    return total
