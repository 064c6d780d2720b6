"""Multiple-pair shortest paths (paper §7.1, computation (v)).

Given a list of ``(src, dst)`` pairs, computes the weighted shortest
distance for each pair. All sources run in one dataflow: distance records
are ``(vertex, (source, dist))`` and the per-vertex reduction keeps the
minimum distance per source, so the propagation is shared across sources
as well as across views.

The result collection carries ``((src, dst), dist)`` records, one per pair
whose destination is reachable.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.core.computation import GraphComputation
from repro.errors import ConfigError


def _min_per_source(key, vals):
    best = {}
    # Visit order cannot reach the output: only the per-source minimum
    # survives and the result is sorted.
    for (source, dist), _mult in vals.items():  # analyze: ignore[GS-U202]
        current = best.get(source)
        if current is None or dist < current:
            best[source] = dist
    return [(source, dist) for source, dist in sorted(best.items())]


class Mpsp(GraphComputation):
    """Shortest distances for a fixed set of vertex pairs."""

    name = "MPSP"
    directed = True

    def __init__(self, pairs: Sequence[Tuple[int, int]]):
        if not pairs:
            raise ConfigError("MPSP needs at least one (src, dst) pair, "
                              "e.g. --pairs 1:5,1:9")
        self.pairs: List[Tuple[int, int]] = list(pairs)

    def build(self, dataflow, edges):
        sources = sorted({src for src, _dst in self.pairs})
        wanted = frozenset(self.pairs)
        # Roots exist only while their source vertex appears in the view.
        source_set = frozenset(sources)
        roots = edges.flat_map(
            lambda rec: [(rec[0], (rec[0], 0))]
            if rec[0] in source_set else [],
            name="mpsp.cand").distinct(name="mpsp.roots")

        e_arr = edges.arrange_by_key(name="mpsp.edges")

        def body(inner, scope):
            e = e_arr.enter(scope)
            r = scope.enter(roots)
            step = inner.join_arranged(
                e,
                lambda v, sd, dw: (dw[0], (sd[0], sd[1] + dw[1])),
                name="mpsp.step")
            return step.concat(r).reduce(_min_per_source, name="mpsp.min")

        dists = roots.iterate(body, name="mpsp.loop")
        return dists.flat_map(
            lambda rec: [((rec[1][0], rec[0]), rec[1][1])]
            if (rec[1][0], rec[0]) in wanted else [],
            name="mpsp.pairs")
