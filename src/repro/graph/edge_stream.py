"""Edge streams: the bridge between stored graphs and the dataflow engine.

An :class:`EdgeStream` is an ordered list of ``(edge_id, src, dst, weight)``
tuples. View collections are materialized as *difference* edge streams; this
module provides the conversions in both directions.
"""

from __future__ import annotations

from itertools import repeat
from typing import Dict, Iterable, List, Optional, Tuple

from repro.differential.multiset import Diff
from repro.errors import UnknownPropertyError
from repro.graph.property_graph import PropertyGraph

EdgeTuple = Tuple[int, int, int, int]  # (edge_id, src, dst, weight)


class EdgeStream:
    """A concrete sequence of edge tuples for one graph or view."""

    def __init__(self, edges: Iterable[EdgeTuple] = ()):
        self.edges: List[EdgeTuple] = list(edges)

    @classmethod
    def from_graph(cls, graph: PropertyGraph,
                   weight: Optional[str] = None) -> "EdgeStream":
        """The graph's edges, weighted by the integer edge property
        ``weight`` (every edge weighs 1 without one): the one reader of
        edge weights. A weight property the edge schema does not declare,
        or that an edge of a schema-less graph lacks, raises
        :class:`UnknownPropertyError`."""
        if weight is None:
            return cls((edge.id, edge.src, edge.dst, 1)
                       for edge in graph.edges)
        if len(graph.edge_schema) and weight not in graph.edge_schema:
            raise UnknownPropertyError(
                f"unknown edge property {weight!r} (the weight property)")
        edges = []
        for edge in graph.edges:
            try:
                w = int(edge.properties[weight])
            except KeyError:
                raise UnknownPropertyError(
                    f"edge ({edge.src}, {edge.dst}) has no weight property "
                    f"{weight!r}") from None
            edges.append((edge.id, edge.src, edge.dst, w))
        return cls(edges)

    def __len__(self) -> int:
        return len(self.edges)

    def __iter__(self):
        return iter(self.edges)

    def as_input_diff(self, directed: bool = True) -> Diff:
        """Render as a +1 multiset of ``(src, (dst, weight))`` records.

        With ``directed=False`` each edge contributes both directions, which
        is what the symmetric computations (WCC) consume.
        """
        return edges_to_input(zip(self.edges, repeat(1)), directed)


def edges_to_input(weighted: Iterable[Tuple[EdgeTuple, int]],
                   directed: bool = True) -> Diff:
    """Dataflow input records for ``(edge tuple, multiplicity)`` pairs.

    The one edge→input conversion: ``directed=False`` mirrors every edge,
    and records whose multiplicities cancel are dropped.
    """
    diff: Diff = {}
    for (_eid, src, dst, w), mult in weighted:
        rec = (src, (dst, w))
        diff[rec] = diff.get(rec, 0) + mult
        if not directed:
            rev = (dst, (src, w))
            diff[rev] = diff.get(rev, 0) + mult
    return {rec: mult for rec, mult in diff.items() if mult != 0}


def edge_diff_to_input(edge_diff: Dict[EdgeTuple, int],
                       directed: bool = True) -> Diff:
    """Convert an edge-tuple difference set to dataflow input records."""
    return edges_to_input(edge_diff.items(), directed)
