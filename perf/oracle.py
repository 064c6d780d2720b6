"""Independent oracles, applied after the clock stops.

Re-implemented here, nothing imported from ``repro``: a change to an
algorithm cannot also change the reference it is checked against. Edges are
``(src, dst[, weight])`` tuples; an oracle returns ``{vertex: value}``, which
the program must match as the multiset ``{(vertex, value): 1}``.
"""

import heapq
from collections import Counter, deque

SCALE, BASE, QUANTUM = 1_000_000, 150_000, 1_000  # BASE = 0.15 * SCALE


def wcc(edges):
    """Union-find; a component's label is its minimum vertex id."""
    parent = {}

    def find(v):
        root = v
        while parent[root] != root:
            root = parent[root]
        while parent[v] != root:
            parent[v], v = root, parent[v]
        return root

    for edge in edges:
        ra, rb = (find(parent.setdefault(v, v)) for v in edge[:2])
        parent[max(ra, rb)] = min(ra, rb)
    return {v: find(v) for v in parent}


def _adjacency(edges):
    out = {}
    for edge in edges:
        out.setdefault(edge[0], []).append(
            (edge[1], edge[2] if len(edge) > 2 else 1))
    return out


def bfs(edges, source):
    """Hop counts from ``source``; empty when it has no outgoing edge
    (the program roots the search on such an edge)."""
    out = _adjacency(edges)
    dist = {source: 0} if source in out else {}
    queue = deque(dist)
    while queue:
        u = queue.popleft()
        for v, _w in out.get(u, ()):
            if v not in dist:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def sssp(edges, source):
    """Dijkstra over positive weights; empty like ``bfs``."""
    out = _adjacency(edges)
    dist = {source: 0} if source in out else {}
    heap = [(0, v) for v in dist]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:
            continue
        for v, w in out.get(u, ()):
            if v not in dist or d + w < dist[v]:
                dist[v] = d + w
                heapq.heappush(heap, (d + w, v))
    return dist


def out_degrees(edges):
    return dict(Counter(edge[0] for edge in edges))


def pagerank(edges, rounds=10):
    """The documented fixed-point rule, quantized, ``rounds`` rounds:
    ``rank'(v) = BASE + sum over u->v of (85 * (rank(u) // deg(u))) // 100``
    rounded to the nearest ``QUANTUM``; stops early at a fixed point."""
    out = _adjacency(edges)
    vertices = set(out) | {v for targets in out.values() for v, _w in targets}
    rank = dict.fromkeys(vertices, SCALE)
    for _ in range(rounds):
        incoming = dict.fromkeys(vertices, 0)
        for u, targets in out.items():
            share = (85 * (rank[u] // len(targets))) // 100
            for v, _w in targets:
                incoming[v] += share
        new = {v: ((BASE + incoming[v] + QUANTUM // 2) // QUANTUM) * QUANTUM
               for v in vertices}
        if new == rank:
            break
        rank = new
    return rank


def as_records(values):
    """The multiset form the program's outputs take."""
    return {(v, value): 1 for v, value in values.items()}
