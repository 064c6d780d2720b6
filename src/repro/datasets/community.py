"""Ground-truth-community graphs (paper datasets "LJ" and "WTC").

A planted-partition graph: communities with Zipf-distributed sizes, dense
intra-community edges, sparse background edges. Nodes may belong to several
communities (as in Com-LiveJournal / Wiki-Topcats). Membership in community
``i`` is exposed as the boolean node property ``c<i>`` so the perturbation
view collections of §7.4 — "remove each k-combination of the N largest
communities" — are expressible as GVDL predicates over node properties.
"""

from __future__ import annotations

import itertools
import random
from typing import List, Sequence, Tuple

from repro.datasets.synthetic import zipf_sizes
from repro.graph.property_graph import PropertyGraph
from repro.graph.schema import PropertyType, Schema
from repro.gvdl.ast import BoolLiteral, Comparison, Literal, Not, Or, Predicate, PropRef


def community_graph(num_nodes: int = 300, num_communities: int = 10,
                    intra_edges: int = 1200, background_edges: int = 300,
                    seed: int = 0, overlap: float = 0.2,
                    name: str = "community") -> PropertyGraph:
    """Generate a community graph with boolean membership properties."""
    rng = random.Random(seed)
    schema = Schema({f"c{i}": PropertyType.BOOL
                     for i in range(num_communities)})
    graph = PropertyGraph(name, node_schema=schema, edge_schema=Schema())
    sizes = zipf_sizes(num_nodes, num_communities)
    members: List[List[int]] = [[] for _ in range(num_communities)]
    node_comms: List[List[int]] = [[] for _ in range(num_nodes)]
    pool = list(range(num_nodes))
    rng.shuffle(pool)
    cursor = 0
    for comm, size in enumerate(sizes):
        for _ in range(size):
            node = pool[cursor % num_nodes]
            cursor += 1
            members[comm].append(node)
            node_comms[node].append(comm)
    # Overlapping memberships.
    for node in range(num_nodes):
        if rng.random() < overlap:
            extra = rng.randrange(num_communities)
            if extra not in node_comms[node]:
                node_comms[node].append(extra)
                members[extra].append(node)
    for node in range(num_nodes):
        props = {f"c{i}": (i in node_comms[node])
                 for i in range(num_communities)}
        graph.add_node(node, props)
    seen = set()

    def try_add(u: int, v: int) -> bool:
        if u == v or (u, v) in seen:
            return False
        seen.add((u, v))
        graph.add_edge(u, v)
        return True

    added = 0
    attempts = 0
    while added < intra_edges and attempts < 60 * intra_edges:
        attempts += 1
        comm = rng.randrange(num_communities)
        group = members[comm]
        if len(group) < 2:
            continue
        u, v = rng.sample(group, 2)
        if try_add(u, v):
            added += 1
    added = 0
    attempts = 0
    while added < background_edges and attempts < 60 * background_edges:
        attempts += 1
        u = rng.randrange(num_nodes)
        v = rng.randrange(num_nodes)
        if try_add(u, v):
            added += 1
    return graph


def community_sizes(graph: PropertyGraph) -> List[Tuple[int, int]]:
    """Return (community index, member count), largest first."""
    counts = {}
    for node in graph.nodes.values():
        for prop, value in node.properties.items():
            if value and prop.startswith("c"):
                idx = int(prop[1:])
                counts[idx] = counts.get(idx, 0) + 1
    return sorted(counts.items(), key=lambda item: (-item[1], item[0]))


def removal_predicate(removed: Sequence[int]) -> Predicate:
    """Edge predicate for "remove communities in ``removed``".

    An edge survives iff neither endpoint belongs to any removed community.
    """
    terms = []
    for comm in removed:
        terms.append(Comparison(PropRef("src", f"c{comm}"), "=", Literal(True)))
        terms.append(Comparison(PropRef("dst", f"c{comm}"), "=", Literal(True)))
    if not terms:
        return BoolLiteral(True)
    return Not(Or(tuple(terms)))


def perturbation_views(graph: PropertyGraph, top_n: int,
                       k: int) -> List[Tuple[str, Predicate]]:
    """The §7.4 C_{N,k} collection: one view per k-combination of the
    top-N communities, each removing those k communities."""
    top = [comm for comm, _size in community_sizes(graph)[:top_n]]
    views = []
    for combo in itertools.combinations(top, k):
        name = "drop-" + "-".join(str(c) for c in combo)
        views.append((name, removal_predicate(combo)))
    return views
