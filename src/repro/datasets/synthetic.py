"""Core random-graph primitives shared by the dataset generators."""

from __future__ import annotations

import random
from typing import List, Optional, Set, Tuple


#: Chance that a new edge's destination is drawn from the endpoint history.
PREFERENTIAL = 0.6
#: Exponent of :func:`zipf_sizes`' ``1 / rank^exponent`` weights.
ZIPF_EXPONENT = 1.2


def random_edge_pairs(num_nodes: int, num_edges: int, seed: int,
                      rng: Optional[random.Random] = None
                      ) -> List[Tuple[int, int]]:
    """Generate a simple directed graph with a heavy-tailed degree profile.

    With probability ``PREFERENTIAL`` the destination of a new edge is drawn
    from the endpoint history (a Yule-Simon-style rich-get-richer process,
    giving the power-law-ish degrees of social networks); otherwise both
    endpoints are uniform. Self-loops and duplicates are rejected.
    """
    if num_nodes < 2:
        raise ValueError("need at least 2 nodes")
    max_edges = num_nodes * (num_nodes - 1)
    if num_edges > max_edges:
        raise ValueError(f"{num_edges} edges exceed the simple-graph "
                         f"maximum {max_edges}")
    rng = rng or random.Random(seed)
    seen: Set[Tuple[int, int]] = set()
    edges: List[Tuple[int, int]] = []
    endpoint_pool: List[int] = []
    attempts = 0
    max_attempts = 50 * num_edges + 1000
    while len(edges) < num_edges:
        attempts += 1
        if attempts > max_attempts:
            raise RuntimeError(
                "edge sampling failed to converge; lower the density")
        src = rng.randrange(num_nodes)
        if endpoint_pool and rng.random() < PREFERENTIAL:
            dst = endpoint_pool[rng.randrange(len(endpoint_pool))]
        else:
            dst = rng.randrange(num_nodes)
        if src == dst or (src, dst) in seen:
            continue
        seen.add((src, dst))
        edges.append((src, dst))
        endpoint_pool.append(dst)
        endpoint_pool.append(src)
    return edges


def zipf_sizes(total: int, buckets: int) -> List[int]:
    """Split ``total`` items into ``buckets`` Zipf-ish decreasing sizes."""
    weights = [1.0 / (i + 1) ** ZIPF_EXPONENT for i in range(buckets)]
    norm = sum(weights)
    sizes = [max(1, int(total * w / norm)) for w in weights]
    # Fix rounding drift.
    drift = total - sum(sizes)
    index = 0
    while drift != 0:
        step = 1 if drift > 0 else -1
        if sizes[index % buckets] + step >= 1:
            sizes[index % buckets] += step
            drift -= step
        index += 1
    return sizes
