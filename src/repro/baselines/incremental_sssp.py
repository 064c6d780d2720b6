"""GraphBolt-style incremental single-source shortest paths.

Algorithm-specific maintenance with the classic asymmetry:

* **Edge additions** are cheap: relax from the new edge's endpoints and
  propagate improvements (a plain label-correcting frontier).
* **Edge deletions** are hard for specialized maintainers: when a deleted
  edge carried a vertex's best distance, every distance that *may* have
  depended on it must be conservatively invalidated and recomputed. This
  implementation invalidates the affected region (downstream of the
  broken vertex) and re-relaxes it from its frontier — over-recomputing
  relative to differential dataflow's precise retractions, which is the
  §7.5 observation that DD beat GraphBolt on SSSP.

Semantics match ``repro.algorithms.BellmanFord`` with a fixed source:
distances for vertices reachable from the source while the source has an
outgoing edge.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterable, Set, Tuple

WeightedEdge = Tuple[int, int, int]  # (src, dst, weight)

_INF = 1 << 60


class IncrementalSssp:
    """Maintains shortest distances from a fixed source."""

    def __init__(self, source: int):
        self.source = source
        self.out_edges: Dict[int, Dict[int, int]] = {}
        self.in_edges: Dict[int, Dict[int, int]] = {}
        self.dist: Dict[int, int] = {}
        #: vertex/edge touches — comparable to the engine's work units.
        self.work = 0

    def apply_diff(self, additions: Iterable[WeightedEdge],
                   removals: Iterable[WeightedEdge]) -> Dict[int, int]:
        """Apply an edge delta and repair distances; returns distances."""
        removals = list(removals)
        additions = list(additions)
        for src, dst, weight in removals:
            outs = self.out_edges.get(src)
            if outs is not None and outs.get(dst) == weight:
                del outs[dst]
            ins = self.in_edges.get(dst)
            if ins is not None and ins.get(src) == weight:
                del ins[src]
            self.work += 1
        for src, dst, weight in additions:
            self.out_edges.setdefault(src, {})[dst] = weight
            self.in_edges.setdefault(dst, {})[src] = weight
            self.work += 1

        if not self.out_edges.get(self.source):
            # Source lost its outgoing edges: no root, no distances.
            self.work += len(self.dist)
            self.dist = {}
            return {}

        # Deletions: conservatively invalidate everything downstream of a
        # vertex whose best distance may have used a removed edge.
        invalid: Set[int] = set()
        for src, dst, weight in removals:
            current = self.dist.get(dst)
            if current is not None and \
                    self.dist.get(src, _INF) + weight == current:
                self._invalidate_downstream(dst, invalid)
        for vertex in invalid:
            self.dist.pop(vertex, None)
        if self.source not in self.dist:
            self.dist[self.source] = 0

        # Re-relax: start from addition endpoints and the frontier around
        # the invalidated region.
        frontier = deque()
        seeds: Set[int] = set()
        for src, _dst, _w in additions:
            if src in self.dist:
                seeds.add(src)
        for vertex in invalid:
            for src in self.in_edges.get(vertex, {}):
                if src in self.dist:
                    seeds.add(src)
        seeds.add(self.source)
        frontier.extend(sorted(seeds))
        queued = set(frontier)
        while frontier:
            vertex = frontier.popleft()
            queued.discard(vertex)
            base = self.dist.get(vertex)
            if base is None:
                continue
            for dst, weight in self.out_edges.get(vertex, {}).items():
                self.work += 1
                candidate = base + weight
                if candidate < self.dist.get(dst, _INF):
                    self.dist[dst] = candidate
                    if dst not in queued:
                        frontier.append(dst)
                        queued.add(dst)
        return dict(self.dist)

    def _invalidate_downstream(self, start: int, invalid: Set[int]) -> None:
        """Mark ``start`` and everything reachable from it as suspect."""
        stack = [start]
        while stack:
            vertex = stack.pop()
            if vertex in invalid or vertex == self.source:
                continue
            if vertex not in self.dist:
                continue
            invalid.add(vertex)
            self.work += 1
            for dst in self.out_edges.get(vertex, {}):
                stack.append(dst)
