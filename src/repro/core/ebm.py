"""Step 1 of view-collection materialization: the Edge Boolean Matrix.

For each edge ``e_i`` of the base graph and each view ``GV_j`` of the
collection, the EBM records whether ``e_i`` satisfies the view's predicate
(paper §3.2, Figure 5a). The computation is embarrassingly parallel over
edges; we shard it over the simulated workers and meter the work.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigError
from repro.graph.edge_stream import EdgeStream
from repro.graph.property_graph import PropertyGraph
from repro.gvdl.ast import Predicate
from repro.gvdl.predicate import (
    compile_predicate,
    evaluate_columns,
    predicate_properties,
)
from repro.timely.meter import WorkMeter
from repro.timely.worker import shard_for

EdgeKey = Tuple[int, int, int, int]  # (edge_id, src, dst, weight)


class EdgeBooleanMatrix:
    """An m-edges x k-views boolean matrix plus the edge identities."""

    def __init__(self, edges: Sequence[EdgeKey], view_names: Sequence[str],
                 matrix: np.ndarray):
        if matrix.shape != (len(edges), len(view_names)):
            raise ConfigError(
                f"matrix shape {matrix.shape} does not match "
                f"{len(edges)} edges x {len(view_names)} views")
        self.edges: List[EdgeKey] = list(edges)
        self.view_names: List[str] = list(view_names)
        self.matrix = matrix.astype(bool)

    @property
    def num_views(self) -> int:
        return self.matrix.shape[1]

    def reorder(self, order: Sequence[int]) -> "EdgeBooleanMatrix":
        """Return a new EBM with columns permuted by ``order``."""
        order = list(order)
        if len(order) != self.num_views or \
                set(order) != set(range(self.num_views)):
            raise ConfigError(f"invalid column order {order}")
        return EdgeBooleanMatrix(
            self.edges,
            [self.view_names[j] for j in order],
            self.matrix[:, order],
        )


def build_ebm(graph: PropertyGraph, view_names: Sequence[str],
              predicates: Sequence[Predicate],
              weight_property: Optional[str] = None,
              meter: Optional[WorkMeter] = None,
              workers: int = 1) -> EdgeBooleanMatrix:
    """Evaluate every view predicate on every edge of the base graph.

    Paper §3.2 step 1 ("an embarrassingly parallelizable computation"):
    rows follow ``graph.edges``. Each referenced property becomes one
    column and each distinct comparison is evaluated once over it (see
    :func:`evaluate_columns`); results and errors are those of evaluating
    each predicate on each edge. The meter is charged as the W-worker
    cluster would work — one superstep in which worker ``i % W`` routes
    edge ``i`` to its source's shard, one in which each shard evaluates
    its edges — so ``total_work`` is ``2m``.
    """
    if len(view_names) != len(predicates):
        raise ConfigError("one predicate per view is required")
    evaluators = [
        compile_predicate(p, graph.edge_schema, graph.node_schema)
        for p in predicates
    ]
    meter = meter or WorkMeter(workers)
    workers = max(1, workers)
    edges = EdgeStream.from_graph(graph, weight_property).edges
    nodes = graph.nodes
    try:
        records = {
            "edge": [edge.properties for edge in graph.edges],
            "src": [nodes[edge.src].properties for edge in graph.edges],
            "dst": [nodes[edge.dst].properties for edge in graph.edges],
        }
        columns = {
            (target, name): [props[name] for props in records[target]]
            for target, name in set().union(
                *map(predicate_properties, predicates))
        }
        rows = evaluate_columns(predicates, columns, len(edges))
    except (KeyError, TypeError):
        # Some cell cannot be evaluated (a record lacks the property, or
        # the operator rejects its operands). Row-at-a-time evaluation
        # short-circuits, so it alone knows whether that cell is ever
        # reached: it returns the matrix or raises the typed error.
        rows = np.zeros((len(edges), len(evaluators)), dtype=bool)
        for row, edge in enumerate(graph.edges):
            rows[row] = [evaluate(edge.properties,
                                  nodes[edge.src].properties,
                                  nodes[edge.dst].properties)
                         for evaluate in evaluators]
    # Input arrives round-robin, like records read from partitioned files.
    routed = [len(range(w, len(edges), workers)) for w in range(workers)]
    evaluated = [0] * workers
    for edge in graph.edges:
        evaluated[shard_for(edge.src, workers)] += 1
    meter.charge_step(routed)
    meter.charge_step(evaluated)
    return EdgeBooleanMatrix(edges, view_names, rows)
