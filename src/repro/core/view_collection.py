"""View collections: definition and three-step materialization (paper §3.2).

Pipeline:

1. **EBM** — evaluate every view predicate on every edge.
2. **Collection ordering** — optionally reorder views to minimize total
   differences (paper §4).
3. **Edge difference stream** — render the ordered EBM as per-view edge
   difference sets consistent with differential-computation semantics.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.diff_stream import (
    EdgeDiff,
    compute_diff_stream,
    diff_sizes,
    view_sizes_from_diffs,
)
from repro.core.ebm import EdgeBooleanMatrix, build_ebm
from repro.core.ordering.optimizer import OrderingResult, order_collection
from repro.differential.multiset import Diff
from repro.errors import ConfigError
from repro.graph.edge_stream import edge_diff_to_input
from repro.graph.property_graph import PropertyGraph
from repro.gvdl.ast import Predicate


@dataclass
class MaterializedCollection:
    """An ordered view collection ready for the analytics executor."""

    name: str
    source: str
    view_names: List[str]
    diffs: List[EdgeDiff]
    view_sizes: List[int]
    diff_sizes: List[int]
    creation_seconds: float
    ordering: Optional[OrderingResult] = None
    ebm: Optional[EdgeBooleanMatrix] = field(default=None, repr=False)

    @classmethod
    def from_diffs(cls, name: str, source: str, view_names: Sequence[str],
                   diffs: List[EdgeDiff], creation_seconds: float = 0.0,
                   ordering: Optional[OrderingResult] = None,
                   ebm: Optional[EdgeBooleanMatrix] = None
                   ) -> "MaterializedCollection":
        """A collection whose size columns are derived from ``diffs``."""
        return cls(name, source, list(view_names), diffs,
                   view_sizes_from_diffs(diffs), diff_sizes(diffs),
                   creation_seconds, ordering, ebm)

    @property
    def num_views(self) -> int:
        return len(self.view_names)

    @property
    def total_diffs(self) -> int:
        """The paper's ``#Diffs`` metric (Table 4)."""
        return sum(self.diff_sizes)

    def input_diff_for_view(self, index: int, directed: bool = True) -> Diff:
        """Dataflow input records for view ``index``'s difference set."""
        return edge_diff_to_input(self.diffs[index], directed=directed)

    def full_view_edges(self, index: int) -> EdgeDiff:
        """The complete edge set of view ``index`` (for scratch runs)."""
        view: EdgeDiff = {}
        for diff in self.diffs[:index + 1]:
            for edge, mult in diff.items():
                new = view.get(edge, 0) + mult
                if new == 0:
                    view.pop(edge, None)
                else:
                    view[edge] = new
        return view


def _order_and_diff(name: str, source: str, ebm: EdgeBooleanMatrix,
                    order_method: str, workers: int, seed: int,
                    started: float) -> MaterializedCollection:
    """Steps 2 and 3: order the EBM's views (``identity`` keeps the given
    order and records no ordering), then render the difference stream."""
    ordering = None
    if order_method != "identity":
        ordering = order_collection(ebm.matrix, method=order_method,
                                    workers=workers, seed=seed)
        ebm = ebm.reorder(ordering.order)
    diffs = compute_diff_stream(ebm)
    return MaterializedCollection.from_diffs(
        name, source, ebm.view_names, diffs,
        creation_seconds=time.perf_counter() - started,
        ordering=ordering, ebm=ebm)


@dataclass
class ViewCollectionDefinition:
    """A parsed-but-unmaterialized view collection."""

    name: str
    source: str
    views: Tuple[Tuple[str, Predicate], ...]

    def __post_init__(self):
        if not self.views:
            raise ConfigError(
                f"view collection {self.name!r} declares no views")
        seen = set()
        for name, _pred in self.views:
            if name in seen:
                raise ConfigError(f"view collection {self.name!r} declares "
                                  f"view {name!r} more than once")
            seen.add(name)

    def materialize(self, graph: PropertyGraph,
                    order_method: str = "identity",
                    workers: int = 1,
                    weight_property: Optional[str] = None,
                    seed: int = 0) -> MaterializedCollection:
        """Run the three materialization steps against a base graph.

        ``order_method`` is passed to the ordering optimizer; the default
        ``identity`` keeps the user-given order (the paper applies the
        optimizer only when a good manual order is unclear).
        """
        started = time.perf_counter()
        ebm = build_ebm(graph, [name for name, _pred in self.views],
                        [pred for _name, pred in self.views],
                        weight_property=weight_property, workers=workers)
        return _order_and_diff(self.name, self.source, ebm, order_method,
                               workers, seed, started)


def reorder_collection(collection: MaterializedCollection,
                       order_method: str = "christofides", seed: int = 0
                       ) -> MaterializedCollection:
    """Re-run the ordering optimizer on an already-materialized collection.

    Reconstructs the membership matrix from the difference stream (no
    predicate re-evaluation needed) and rebuilds the difference sets under
    the new order — useful when a collection was created with the
    optimizer off, or to compare orderings of a loaded collection.
    """
    started = time.perf_counter()
    edge_index: dict = {}
    for diff in collection.diffs:
        for edge in diff:
            edge_index.setdefault(edge, len(edge_index))
    matrix = np.zeros((len(edge_index), collection.num_views), dtype=bool)
    current = np.zeros(len(edge_index), dtype=np.int8)
    for view, diff in enumerate(collection.diffs):
        for edge, mult in diff.items():
            current[edge_index[edge]] += mult
        matrix[:, view] = current > 0
    ebm = EdgeBooleanMatrix(list(edge_index), collection.view_names, matrix)
    return _order_and_diff(collection.name, collection.source, ebm,
                           order_method, workers=1, seed=seed,
                           started=started)


def collection_from_diffs(name: str, diffs: Sequence[EdgeDiff],
                          view_names: Optional[Sequence[str]] = None,
                          source: str = "synthetic") -> MaterializedCollection:
    """Build a collection directly from difference sets.

    Used by benchmark workloads that generate churn programmatically (e.g.
    the paper's Orkut experiment adds/removes random edges per view rather
    than evaluating predicates).
    """
    diffs = [dict(d) for d in diffs]
    names = list(view_names) if view_names is not None else [
        f"view-{i}" for i in range(len(diffs))]
    if len(names) != len(diffs):
        raise ConfigError("one name per difference set is required")
    return MaterializedCollection.from_diffs(name, source, names, diffs)


__all__ = [
    "MaterializedCollection",
    "ViewCollectionDefinition",
    "collection_from_diffs",
    "reorder_collection",
]
