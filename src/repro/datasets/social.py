"""Large social-network analogues (paper datasets "TW" and "Orkut").

``social_like`` generates a heavy-tailed directed social graph with the
§7.6 scalability experiment's properties: per-user
``city``/``state``/``country`` locations (two countries) and a per-edge
``affinity`` level (1=low, 2=medium, 3=high), from which the 9-view
collection "same city/state/country x affinity >= low/med/high" is
defined.
"""

from __future__ import annotations

import random
from typing import List, Tuple

from repro.datasets.synthetic import random_edge_pairs
from repro.graph.property_graph import PropertyGraph
from repro.graph.schema import PropertyType, Schema
from repro.gvdl.ast import And, Comparison, Literal, Predicate, PropRef

CITIES_PER_STATE = 3
STATES_PER_COUNTRY = 2
COUNTRIES = 2


def social_like(num_nodes: int = 400, num_edges: int = 2400, seed: int = 0,
                name: str = "social") -> PropertyGraph:
    """Generate the TW/Orkut analogue."""
    rng = random.Random(seed)
    node_schema = Schema({
        "city": PropertyType.STRING,
        "state": PropertyType.STRING,
        "country": PropertyType.STRING,
    })
    edge_schema = Schema({"affinity": PropertyType.INT})
    graph = PropertyGraph(name, node_schema=node_schema,
                          edge_schema=edge_schema)
    num_cities = COUNTRIES * STATES_PER_COUNTRY * CITIES_PER_STATE
    for node in range(num_nodes):
        city = rng.randrange(num_cities)
        state = city // CITIES_PER_STATE
        country = state // STATES_PER_COUNTRY
        graph.add_node(node, {
            "city": f"city{city}",
            "state": f"state{state}",
            "country": f"country{country}",
        })
    for src, dst in random_edge_pairs(num_nodes, num_edges, seed=seed,
                                      rng=rng):
        graph.add_edge(src, dst, {"affinity": rng.randrange(1, 4)})
    return graph


def locality_affinity_views() -> List[Tuple[str, Predicate]]:
    """The §7.6 9-view collection: same-location x minimum affinity."""
    views = []
    for scope in ("city", "state", "country"):
        for level, label in ((1, "low"), (2, "medium"), (3, "high")):
            predicate: Predicate = And((
                Comparison(PropRef("src", scope), "=", PropRef("dst", scope)),
                Comparison(PropRef("edge", "affinity"), ">=", Literal(level)),
            ))
            views.append((f"{scope}-{label}", predicate))
    return views
