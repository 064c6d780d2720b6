"""Plain-Python reference implementations for validating the dataflow
algorithms.

Each reference consumes an edge list and mirrors the exact semantics of
its differential counterpart — including PageRank's integer arithmetic —
so test comparisons are exact. Edge lists may be ``(src, dst, weight)``
triples or the materialized-view form ``(edge_id, src, dst, weight)``
(see :func:`view_edge_list`); every oracle accepts both.

All oracles share a uniform calling convention, ``oracle(edges,
**params)``, where ``params`` are keyword arguments named exactly like
the matching :class:`~repro.core.computation.GraphComputation`
constructor parameters. The fuzzing harness (:mod:`repro.verify`) relies
on this to cross-check every algorithm generically.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.algorithms.pagerank import BASE, DAMPING_DEN, DAMPING_NUM, SCALE

EdgeList = Iterable[Tuple[int, ...]]


def _as_triples(edges: EdgeList) -> List[Tuple[int, int, int]]:
    """Normalize to ``(src, dst, weight)`` triples.

    Accepts 3-tuples as-is and the 4-tuple ``(edge_id, src, dst, weight)``
    form produced by view materialization.
    """
    out: List[Tuple[int, int, int]] = []
    for record in edges:
        if len(record) == 3:
            out.append(tuple(record))
        elif len(record) == 4:
            out.append((record[1], record[2], record[3]))
        else:
            raise ValueError(
                f"edge record must be (src, dst, w) or (eid, src, dst, w), "
                f"got {record!r}")
    return out


def view_edge_list(collection, index: int) -> List[Tuple[int, int, int]]:
    """The full edge list of view ``index`` as oracle-ready triples.

    Expands multiplicities (a diff entry with multiplicity 2 yields two
    triples) so multigraph semantics — e.g. out-degree counts — survive
    the conversion. Sorted for determinism.
    """
    triples: List[Tuple[int, int, int]] = []
    for (_eid, src, dst, w), mult in sorted(
            collection.full_view_edges(index).items()):
        triples.extend([(src, dst, w)] * mult)
    return triples


def _vertices(edges: List[Tuple[int, int, int]]) -> Set[int]:
    out: Set[int] = set()
    for src, dst, _w in edges:
        out.add(src)
        out.add(dst)
    return out


def reference_wcc(edges: EdgeList) -> Dict[int, int]:
    """Component id = minimum vertex id, edges treated as undirected."""
    edges = _as_triples(edges)
    parent: Dict[int, int] = {v: v for v in _vertices(edges)}

    def find(x: int) -> int:
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    for src, dst, _w in edges:
        ra, rb = find(src), find(dst)
        if ra != rb:
            parent[ra] = rb
    lowest: Dict[int, int] = {}
    for v in parent:
        root = find(v)
        lowest[root] = min(lowest.get(root, v), v)
    return {v: lowest[find(v)] for v in parent}


def reference_bfs(edges: EdgeList,
                  source: Optional[int] = None) -> Dict[int, int]:
    """Hop distances from ``source`` (default: minimum source id present).

    Unreachable vertices are absent from the result.
    """
    edges = _as_triples(edges)
    if not edges:
        return {}
    if source is None:
        source = min(src for src, _dst, _w in edges)
    adjacency: Dict[int, List[int]] = {}
    for src, dst, _w in edges:
        adjacency.setdefault(src, []).append(dst)
    if source not in adjacency:
        # Mirrors the dataflow version: the root record exists only while
        # the source has an outgoing edge in the view.
        return {}
    dist = {source: 0}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in adjacency.get(u, ()):
            if v not in dist:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def reference_sssp(edges: EdgeList,
                   source: Optional[int] = None) -> Dict[int, int]:
    """Weighted shortest distances (Bellman-Ford semantics)."""
    edges = _as_triples(edges)
    if not edges:
        return {}
    if source is None:
        source = min(src for src, _dst, _w in edges)
    if source not in {src for src, _dst, _w in edges}:
        return {}
    verts = _vertices(edges)
    dist: Dict[int, int] = {source: 0}
    for _round in range(len(verts)):
        changed = False
        for src, dst, w in edges:
            if src in dist:
                candidate = dist[src] + w
                if dst not in dist or candidate < dist[dst]:
                    dist[dst] = candidate
                    changed = True
        if not changed:
            break
    return dist


def reference_pagerank(edges: EdgeList,
                       iterations: int = 10) -> Dict[int, int]:
    """Integer PageRank with the exact update rule of the dataflow version
    (at its default quantum)."""
    quantum = SCALE // 1000
    edges = _as_triples(edges)
    verts = sorted(_vertices(edges))
    out_edges: Dict[int, List[int]] = {}
    for src, dst, _w in edges:
        out_edges.setdefault(src, []).append(dst)
    rank = {v: SCALE for v in verts}
    for _ in range(iterations):
        incoming = {v: 0 for v in verts}
        for u, targets in out_edges.items():
            share = rank[u] // len(targets)
            contribution = (DAMPING_NUM * share) // DAMPING_DEN
            for v in targets:
                incoming[v] += contribution
        new_rank = {
            v: ((BASE + incoming[v] + quantum // 2) // quantum) * quantum
            for v in verts
        }
        if new_rank == rank:
            break
        rank = new_rank
    return rank


def reference_scc(edges: EdgeList) -> Dict[int, int]:
    """SCC ids (= max member id) via iterative Tarjan."""
    edges = _as_triples(edges)
    adjacency: Dict[int, List[int]] = {}
    verts = sorted(_vertices(edges))
    for src, dst, _w in edges:
        adjacency.setdefault(src, []).append(dst)
    index: Dict[int, int] = {}
    lowlink: Dict[int, int] = {}
    on_stack: Set[int] = set()
    stack: List[int] = []
    counter = [0]
    component: Dict[int, int] = {}

    def strongconnect(start: int) -> None:
        work = [(start, iter(adjacency.get(start, ())))]
        index[start] = lowlink[start] = counter[0]
        counter[0] += 1
        stack.append(start)
        on_stack.add(start)
        while work:
            v, neighbours = work[-1]
            advanced = False
            for w in neighbours:
                if w not in index:
                    index[w] = lowlink[w] = counter[0]
                    counter[0] += 1
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(adjacency.get(w, ()))))
                    advanced = True
                    break
                if w in on_stack:
                    lowlink[v] = min(lowlink[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[v])
            if lowlink[v] == index[v]:
                members = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    members.append(w)
                    if w == v:
                        break
                scc_id = max(members)
                for w in members:
                    component[w] = scc_id

    for v in verts:
        if v not in index:
            strongconnect(v)
    return component


def reference_kcore(edges: EdgeList, k: int = 2) -> Dict[int, int]:
    """k-core membership via peeling; edges treated as undirected simple."""
    neighbours: Dict[int, Set[int]] = {}
    for src, dst, _w in _as_triples(edges):
        if src == dst:
            continue
        neighbours.setdefault(src, set()).add(dst)
        neighbours.setdefault(dst, set()).add(src)
    alive = set(neighbours)
    changed = True
    while changed:
        changed = False
        for v in list(alive):
            degree = sum(1 for u in neighbours[v] if u in alive)
            if degree < k:
                alive.discard(v)
                changed = True
    return {v: k for v in alive}


def reference_triangles(edges: EdgeList) -> Dict[int, int]:
    """Per-vertex triangle counts on the undirected simple graph."""
    adjacency: Dict[int, Set[int]] = {}
    for src, dst, _w in _as_triples(edges):
        if src == dst:
            continue
        adjacency.setdefault(src, set()).add(dst)
        adjacency.setdefault(dst, set()).add(src)
    counts: Dict[int, int] = {}
    verts = sorted(adjacency)
    for a in verts:
        higher = sorted(u for u in adjacency[a] if u > a)
        for i, b in enumerate(higher):
            for c in higher[i + 1:]:
                if c in adjacency[b]:
                    for v in (a, b, c):
                        counts[v] = counts.get(v, 0) + 1
    return counts


def reference_clustering(edges: EdgeList) -> Dict[int, Tuple[int, int]]:
    """(triangles, possible pairs) per vertex of undirected degree >= 2."""
    edges = _as_triples(edges)
    adjacency: Dict[int, Set[int]] = {}
    for src, dst, _w in edges:
        if src == dst:
            continue
        adjacency.setdefault(src, set()).add(dst)
        adjacency.setdefault(dst, set()).add(src)
    triangles = reference_triangles(edges)
    out: Dict[int, Tuple[int, int]] = {}
    for vertex, neighbours in adjacency.items():
        degree = len(neighbours)
        if degree >= 2:
            out[vertex] = (triangles.get(vertex, 0),
                           degree * (degree - 1) // 2)
    return out


def reference_out_degrees(edges: EdgeList) -> Dict[int, int]:
    """Out-degree per vertex with outgoing edges (multiplicity included)."""
    out: Dict[int, int] = {}
    for src, _dst, _w in _as_triples(edges):
        out[src] = out.get(src, 0) + 1
    return out


def reference_max_degree(edges: EdgeList) -> Dict[int, int]:
    """The dataflow MaxDegree result: ``{0: max out-degree}`` (or empty)."""
    degrees = reference_out_degrees(edges)
    if not degrees:
        return {}
    return {0: max(degrees.values())}


def reference_mpsp(edges: EdgeList,
                   pairs: Sequence[Tuple[int, int]] = ()
                   ) -> Dict[Tuple[int, int], int]:
    """Per-pair shortest distances; unreachable pairs are absent."""
    edges = _as_triples(edges)
    present_sources = {src for src, _dst, _w in edges}
    result: Dict[Tuple[int, int], int] = {}
    for source in sorted({s for s, _d in pairs}):
        if source not in present_sources:
            continue
        dist = reference_sssp(edges, source)
        for s, d in pairs:
            if s == source and d in dist:
                result[(s, d)] = dist[d]
    return result


#: BellmanFord shares SSSP's oracle (identical semantics, separate name so
#: the verify registry can address both uniformly).
reference_bellman_ford = reference_sssp


def reference_label_propagation(edges: EdgeList,
                                rounds: int = 8) -> Dict[int, int]:
    """Synchronous plurality label propagation, ties to smallest label.

    Mirrors :class:`~repro.algorithms.label_propagation.LabelPropagation`
    exactly: undirected simple-graph neighbours (no self-loop votes, no
    multi-edge vote stuffing), at most ``rounds`` synchronous rounds,
    early exit at a fixed point.
    """
    adjacency: Dict[int, Set[int]] = {}
    for src, dst, _w in _as_triples(edges):
        if src == dst:
            continue
        adjacency.setdefault(src, set()).add(dst)
        adjacency.setdefault(dst, set()).add(src)
    labels = {v: v for v in adjacency}
    for _ in range(rounds):
        new = {}
        for v, neighbours in adjacency.items():
            counts: Dict[int, int] = {}
            for u in neighbours:
                label = labels[u]
                counts[label] = counts.get(label, 0) + 1
            new[v] = min(counts, key=lambda label: (-counts[label], label))
        if new == labels:
            break
        labels = new
    return labels


def reference_personalized_pagerank(edges: EdgeList,
                                    seeds: Sequence[int] = (),
                                    iterations: int = 10,
                                    quantum: int = SCALE // 1000
                                    ) -> Dict[int, int]:
    """Integer PPR with the exact update rule of the dataflow version.

    Seed normalization mirrors the dataflow: absent seeds are dropped and
    restart mass splits over the seeds present in the view; with no seed
    present every rank is zero.
    """
    edges = _as_triples(edges)
    verts = sorted(_vertices(edges))
    present = sorted({int(s) for s in seeds} & set(verts))
    out_edges: Dict[int, List[int]] = {}
    for src, dst, _w in edges:
        out_edges.setdefault(src, []).append(dst)
    base = {v: 0 for v in verts}
    rank = {v: 0 for v in verts}
    for v in present:
        base[v] = BASE // len(present)
        rank[v] = SCALE // len(present)
    for _ in range(iterations):
        incoming = {v: 0 for v in verts}
        for u, targets in out_edges.items():
            share = rank[u] // len(targets)
            contribution = (DAMPING_NUM * share) // DAMPING_DEN
            for v in targets:
                incoming[v] += contribution
        new_rank = {
            v: ((base[v] + incoming[v] + quantum // 2) // quantum) * quantum
            for v in verts
        }
        if new_rank == rank:
            break
        rank = new_rank
    return rank


def reference_ktruss(edges: EdgeList,
                     k: int = 2) -> Dict[Tuple[int, int], int]:
    """k-truss edges via synchronous support peeling (cascades included).

    Each round recounts every surviving edge's triangle support over the
    surviving subgraph, then drops all under-supported edges at once —
    the same synchronous schedule as the dataflow fixed point. (The
    k-truss is unique, so any peeling order converges to the same set;
    the synchronous schedule is what the pin tests spell out.)
    """
    canonical: Set[Tuple[int, int]] = set()
    for src, dst, _w in _as_triples(edges):
        if src != dst:
            canonical.add((min(src, dst), max(src, dst)))
    alive = set(canonical)
    need = k - 2
    changed = True
    while changed:
        changed = False
        adjacency: Dict[int, Set[int]] = {}
        for a, b in alive:
            adjacency.setdefault(a, set()).add(b)
            adjacency.setdefault(b, set()).add(a)
        for edge in sorted(alive):
            a, b = edge
            support = len(adjacency[a] & adjacency[b])
            if support < need:
                alive.discard(edge)
                changed = True
    return {edge: k for edge in alive}


def reference_composite_score(edges: EdgeList, degree_weight: int = 1,
                              triangle_weight: int = 1, rank_weight: int = 1,
                              iterations: int = 5
                              ) -> Dict[int, Tuple[int, int]]:
    """Weighted degree/triangle/centi-PageRank blend with dense ranking.

    ``(vertex, (position, score))`` with position 1 the best score and
    ties broken toward the smaller vertex id — the exact ordering rule of
    :class:`~repro.algorithms.scoring.CompositeScore`.
    """
    from repro.algorithms.scoring import CENTIRANK

    edges = _as_triples(edges)
    verts = sorted(_vertices(edges))
    degrees = reference_out_degrees(edges)
    triangles = reference_triangles(edges)
    ranks = reference_pagerank(edges, iterations=iterations)
    scores = {
        v: (degree_weight * degrees.get(v, 0)
            + triangle_weight * triangles.get(v, 0)
            + rank_weight * (ranks[v] // CENTIRANK))
        for v in verts
    }
    ordered = sorted(verts, key=lambda v: (-scores[v], v))
    return {v: (position, scores[v])
            for position, v in enumerate(ordered, start=1)}
