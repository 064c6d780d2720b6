"""Stack-Overflow-like temporal graph (paper dataset "SO").

Every edge carries a unix creation timestamp ``ts``. Timestamps span the
real dataset's range (May 2008 onward) with activity growing over time —
later windows contain more edges, which is what makes the paper's expanding
and sliding window collections behave the way they do.
"""

from __future__ import annotations

import random

from repro.datasets.synthetic import random_edge_pairs
from repro.graph.property_graph import PropertyGraph
from repro.graph.schema import PropertyType, Schema

#: 2008-05-01; the Stack Overflow dataset starts around here.
EPOCH_START = 1209600000
SECONDS_PER_DAY = 86400
SECONDS_PER_YEAR = 365 * SECONDS_PER_DAY
#: Years the timestamps span, and the skew of activity toward their end.
SPAN_YEARS = 8.0
GROWTH = 2.0


def ts_after(days: float = 0, years: float = 0) -> int:
    """A unix timestamp ``days``/``years`` after the dataset start."""
    return int(EPOCH_START + days * SECONDS_PER_DAY + years * SECONDS_PER_YEAR)


def stackoverflow_like(num_nodes: int = 300, num_edges: int = 1500,
                       seed: int = 0) -> PropertyGraph:
    """Generate the SO analogue.

    Timestamps span ``SPAN_YEARS`` and skew toward its end (activity
    grows over the site's life): ``ts = start + span * u^(1/GROWTH)`` for
    uniform ``u``.
    """
    rng = random.Random(seed)
    graph = PropertyGraph(
        "stackoverflow",
        node_schema=Schema(),
        edge_schema=Schema({"ts": PropertyType.INT}),
    )
    for node in range(num_nodes):
        graph.add_node(node)
    span = SPAN_YEARS * SECONDS_PER_YEAR
    pairs = random_edge_pairs(num_nodes, num_edges, seed=seed, rng=rng)
    stamped = []
    for src, dst in pairs:
        offset = span * (rng.random() ** (1.0 / GROWTH))
        stamped.append((int(EPOCH_START + offset), src, dst))
    # The SNAP file is time-ordered; keep that property.
    stamped.sort()
    for ts, src, dst in stamped:
        graph.add_edge(src, dst, {"ts": ts})
    return graph
