"""Paper-citations-like graph (paper dataset "PC", Semantic Scholar).

Nodes are papers with two properties — publication ``year`` (1936-2020,
publication volume growing over time) and ``authors`` count — and edges
cite strictly older (or same-year) papers, making the graph a near-DAG
exactly like a real citation network. The paper's Csl / Cex-sh-sl / Caut
collections window on these two node properties.
"""

from __future__ import annotations

import random

from repro.graph.property_graph import PropertyGraph
from repro.graph.schema import PropertyType, Schema

YEAR_MIN = 1936
YEAR_MAX = 2020
#: The most authors a paper has.
MAX_AUTHORS = 30


def citations_like(num_nodes: int = 400, num_edges: int = 1600,
                   seed: int = 0) -> PropertyGraph:
    """Generate the PC analogue."""
    rng = random.Random(seed)
    graph = PropertyGraph(
        "citations",
        node_schema=Schema({"year": PropertyType.INT,
                            "authors": PropertyType.INT}),
        edge_schema=Schema(),
    )
    span = YEAR_MAX - YEAR_MIN
    years = []
    for node in range(num_nodes):
        # Quadratic skew: publication volume grows over the decades.
        year = YEAR_MIN + int(span * (rng.random() ** 0.5))
        authors = 1 + min(MAX_AUTHORS - 1, int(rng.expovariate(1 / 4.0)))
        graph.add_node(node, {"year": year, "authors": authors})
        years.append(year)
    order = sorted(range(num_nodes), key=lambda v: (years[v], v))
    rank = {v: i for i, v in enumerate(order)}
    seen = set()
    added = 0
    attempts = 0
    while added < num_edges and attempts < 60 * num_edges:
        attempts += 1
        src = rng.randrange(num_nodes)
        if rank[src] == 0:
            continue
        # Cite a paper older than (or contemporaneous with) the source,
        # biased toward recent work.
        older_rank = int(rank[src] * (rng.random() ** 0.3))
        dst = order[older_rank]
        if src == dst or (src, dst) in seen:
            continue
        seen.add((src, dst))
        graph.add_edge(src, dst)
        added += 1
    return graph
