"""Benchmark-owned seeded input generators.

Everything the program under test receives — CSV text, GVDL text, JSON
batch and request lists — is made here from ``--seed`` alone. Nothing is
imported from ``repro``: a later change to ``repro.datasets`` or
``repro.bench`` cannot move a workload. The same seed gives byte-identical
text (``digest`` pins it in the result).

Sizes are drawn *stratified* wherever the program's cost depends on them
(exactly ``edges`` distinct edges, evenly spread timestamps, equal-sized
communities): the seed moves which edges exist, not how much work a run
is, so two seeds' timings stay within a few percent of each other.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from typing import Dict, List, Sequence, Tuple

Edge = Tuple[int, int]


def digest(*texts: str) -> str:
    """sha256 over the generated texts, in order."""
    h = hashlib.sha256()
    for text in texts:
        h.update(text.encode("utf-8"))
        h.update(b"\0")
    return h.hexdigest()


def subseed(seed: int, *parts) -> int:
    """A derived seed that does not depend on ``PYTHONHASHSEED``."""
    text = ":".join(str(p) for p in (seed, *parts))
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big")


def _distinct_edges(rng: random.Random, nodes: int, count: int,
                    taken: set) -> List[Edge]:
    out: List[Edge] = []
    while len(out) < count:
        u, v = rng.randrange(nodes), rng.randrange(nodes)
        if u != v and (u, v) not in taken:
            taken.add((u, v))
            out.append((u, v))
    return out


# -- temporal graph (expand_similar, slide_disjoint, expand_process2, serve) --

def temporal_graph(seed: int, blocks: int, block_nodes: int,
                   block_edges: int, span: int, prop: str = "ts",
                   origin: int = 0
                   ) -> Tuple[str, str, List[Tuple[int, int, int]]]:
    """``blocks`` disjoint random digraphs of ``block_nodes`` nodes and
    ``block_edges`` distinct edges each, every edge carrying an integer
    ``prop`` in ``[origin, origin + span)``.

    Returns (nodes CSV, edges CSV, [(src, dst, value)]). The blocks never
    touch (tenants of one store), so a run's cost is the sum of ``blocks``
    independent propagation processes rather than one global wave whose
    depth the seed decides. Values are the evenly spaced grid
    ``origin + i * span // edges`` shuffled onto the edges, so windows of
    equal width hold equally many edges whatever the seed.
    """
    rng = random.Random(subseed(seed, "temporal", blocks, block_nodes,
                                block_edges, span))
    pairs: List[Edge] = []
    for block in range(blocks):
        low = block * block_nodes
        pairs.extend((low + u, low + v) for u, v in _distinct_edges(
            rng, block_nodes, block_edges, set()))
    rng.shuffle(pairs)
    edges = len(pairs)
    stamps = [origin + i * span // edges for i in range(edges)]
    rng.shuffle(stamps)
    rows = [(u, v, ts) for (u, v), ts in zip(pairs, stamps)]
    nodes_csv = "id\n" + "".join(
        f"{i}\n" for i in range(blocks * block_nodes))
    edges_csv = f"src,dst,{prop}:int\n" + "".join(
        f"{u},{v},{ts}\n" for u, v, ts in rows)
    return nodes_csv, edges_csv, rows


def windows_gvdl(name: str, graph: str, windows: Sequence[Tuple[int, int]],
                 prop: str = "ts") -> str:
    """One view ``w<i>`` per ``[lo, hi)`` window of ``prop`` (a lower
    bound of 0 is left out: cumulative windows read ``ts < hi``)."""
    views = []
    for i, (lo, hi) in enumerate(windows):
        lower = f"{prop} >= {lo} and " if lo else ""
        views.append(f"[w{i}: {lower}{prop} < {hi}]")
    return f"create view collection {name} on {graph} " + ", ".join(views)


# -- community graph (perturb_ordered) ---------------------------------------

def community_graph(seed: int, nodes: int, edges: int, communities: int,
                    intra: float = 0.8
                    ) -> Tuple[str, str, List[Edge], List[int]]:
    """Equal-sized communities ``c0..c<k-1>`` as boolean node properties.

    Node ``v`` belongs to community ``membership[v]`` (a shuffled
    round-robin, so sizes are equal); a fraction ``intra`` of the edges
    joins two nodes of one community, the rest are uniform background.
    Returns (nodes CSV, edges CSV, edge list, membership).
    """
    rng = random.Random(subseed(seed, "community", nodes, edges, communities))
    membership = [i % communities for i in range(nodes)]
    rng.shuffle(membership)
    members: List[List[int]] = [[] for _ in range(communities)]
    for node, comm in enumerate(membership):
        members[comm].append(node)
    taken: set = set()
    pairs: List[Edge] = []
    n_intra = int(edges * intra)
    per_comm = n_intra // communities
    for comm in range(communities):
        group = members[comm]
        made = 0
        while made < per_comm:
            u, v = rng.choice(group), rng.choice(group)
            if u != v and (u, v) not in taken:
                taken.add((u, v))
                pairs.append((u, v))
                made += 1
    pairs.extend(_distinct_edges(rng, nodes, edges - len(pairs), taken))
    rng.shuffle(pairs)
    header = "id," + ",".join(f"c{i}:bool" for i in range(communities))
    nodes_csv = header + "\n" + "".join(
        f"{node}," + ",".join(
            "true" if membership[node] == c else "false"
            for c in range(communities)) + "\n"
        for node in range(nodes))
    edges_csv = "src,dst\n" + "".join(f"{u},{v}\n" for u, v in pairs)
    return nodes_csv, edges_csv, pairs, membership


def perturb_views(seed: int, communities: int, drop: int
                  ) -> List[Tuple[str, Tuple[int, ...]]]:
    """One view per ``drop``-combination of communities, in a seeded
    shuffled order (the user order the ordering optimizer must beat)."""
    combos = list(itertools.combinations(range(communities), drop))
    random.Random(subseed(seed, "perturb", communities, drop)).shuffle(combos)
    return [("d" + "_".join(str(c) for c in combo), combo)
            for combo in combos]


def perturb_gvdl(name: str, graph: str,
                 views: Sequence[Tuple[str, Tuple[int, ...]]]) -> str:
    """``not (src.c3 = true or dst.c3 = true or ...)`` per view."""
    parts = []
    for view_name, combo in views:
        terms = " or ".join(
            f"src.c{c} = true or dst.c{c} = true" for c in combo)
        parts.append(f"[{view_name}: not ({terms})]")
    return f"create view collection {name} on {graph} " + ", ".join(parts)


# -- churn stream (stream_churn) ---------------------------------------------

def churn_batches(seed: int, blocks: int, block_nodes: int,
                  block_edges: int, epochs: int, churn: int
                  ) -> List[Dict[str, List[List[int]]]]:
    """Batch 0 appends the base graph; each later batch retracts ``churn``
    live edges and appends ``churn`` fresh ones (weights 1..5).

    The base graph is a hub (vertex 0) with one permanent weight-1 edge
    into each of ``blocks`` disjoint random digraphs. What a retraction
    costs a maintained shortest-path tree is heavy-tailed in how close to
    the root it lands; with the root fanning into independent blocks a
    run totals many small subtrees instead of one lottery. Retractions
    are sampled from the live non-hub edges only, so no batch is ever
    refused, and the live edge count never changes.
    """
    rng = random.Random(subseed(seed, "churn", blocks, block_nodes,
                                block_edges, epochs, churn))
    taken: set = set()
    live: List[Tuple[int, int, int]] = []

    def fresh(count: int) -> List[Tuple[int, int, int]]:
        out = []
        while len(out) < count:
            low = 1 + rng.randrange(blocks) * block_nodes
            u = low + rng.randrange(block_nodes)
            v = low + rng.randrange(block_nodes)
            if u != v and (u, v) not in taken:
                taken.add((u, v))
                out.append((u, v, rng.randint(1, 5)))
        return out

    hub = [(0, 1 + block * block_nodes, 1) for block in range(blocks)]
    first = fresh(blocks * block_edges)
    live.extend(first)
    batches = [{"appends": [list(e) for e in hub + first], "retracts": []}]
    for _ in range(epochs):
        retracts = []
        for _ in range(churn):
            index = rng.randrange(len(live))
            live[index], live[-1] = live[-1], live[index]
            edge = live.pop()
            taken.discard((edge[0], edge[1]))
            retracts.append(edge)
        appends = fresh(churn)
        live.extend(appends)
        batches.append({"appends": [list(e) for e in appends],
                        "retracts": [list(e) for e in retracts]})
    return batches


# -- request script (serve_mixed) --------------------------------------------

#: The four cached-read request shapes of ``serve_mixed``.
RUN_SHAPES = (
    {"computation": "wcc", "target": "g"},
    {"computation": "wcc", "target": "hist"},
    {"computation": "bfs", "target": "g", "params": {"source": 0}},
    {"computation": "degrees", "target": "hist"},
)


def request_script(seed: int, blocks: int, block_nodes: int, requests: int,
                   mutate_every: int, edges_per_mutation: int,
                   taken: Sequence[Edge], span: int, origin: int
                   ) -> List[Dict]:
    """A closed-loop script in blocks of ``mutate_every`` requests: the
    last of a block is a ``/mutate`` adding seeded fresh edges (each inside
    one block of the ``temporal_graph``, which stays a union of disjoint
    blocks), the others are ``/run`` requests cycling through ``RUN_SHAPES``.

    Block ``b`` starts its cycle at shape ``b``: which shape follows which
    decides how far the shared resident dataflow must move on a miss, so
    the order is part of the workload (every rotation occurs) and is not
    left to the seed. Each block costs one miss per shape and then only
    hits, whatever the seed.
    """
    rng = random.Random(subseed(seed, "requests", blocks, block_nodes,
                                requests))
    used = set(taken)
    script: List[Dict] = []
    for block in range(requests // mutate_every):
        for i in range(mutate_every - 1):
            shape = RUN_SHAPES[(block + i) % len(RUN_SHAPES)]
            script.append({"path": "/run",
                           "body": dict(shape, include_output=False)})
        fresh = []
        while len(fresh) < edges_per_mutation:
            low = rng.randrange(blocks) * block_nodes
            u, v = low + rng.randrange(block_nodes), \
                low + rng.randrange(block_nodes)
            if u != v and (u, v) not in used:
                used.add((u, v))
                fresh.append((u, v))
        script.append({"path": "/mutate", "body": {
            "graph": "g",
            "add_edges": [[u, v, {"year": origin + rng.randrange(span)}]
                          for u, v in fresh]}})
    return script


def dumps(obj) -> str:
    """Canonical JSON text (what gets digested and handed over)."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))
