"""Structural guarantee: one shared edges arrangement per dataflow.

The hot-path contract is that every iterative algorithm arranges its edges
relation exactly once (at the root scope) and shares that arrangement with
all of its joins — no algorithm may quietly fall back to a private-trace
``JoinOp`` over the edges, which would re-index the (large) edges relation
per join and per loop.

The test walks each algorithm's operator DAG from the edges ``InputOp``
through *linear* operators only (map/flat_map/filter/concat/negate/
inspect/enter — operators that keep "this is still the edges relation"
true) and asserts that within that edges-linear region there is exactly
one ``ArrangeOp`` and that no private join consumes the edges directly.
Relations derived through a reduce or a join (e.g. the distinct-ed
adjacency in triangles) are deliberately outside the region: they are no
longer the raw edges.
"""

import pytest

from repro.algorithms.bellman_ford import BellmanFord
from repro.algorithms.bfs import Bfs
from repro.algorithms.mpsp import Mpsp
from repro.algorithms.pagerank import PageRank
from repro.algorithms.ppr import PersonalizedPageRank
from repro.algorithms.scc import Scc
from repro.algorithms.scoring import CompositeScore
from repro.algorithms.wcc import Wcc
from repro.differential import Dataflow
from repro.differential.operators.arrange import (
    ArrangeEnterOp,
    ArrangeOp,
    JoinArrangedOp,
)
from repro.differential.operators.iterate import EnterOp
from repro.differential.operators.join import JoinOp
from repro.differential.operators.linear import (
    ConcatOp,
    FilterOp,
    FlatMapOp,
    InspectOp,
    MapOp,
    NegateOp,
)

LINEAR = (MapOp, FlatMapOp, FilterOp, ConcatOp, NegateOp, InspectOp,
          EnterOp)

ALGORITHMS = [
    Bfs(),
    Bfs(source=0),
    Wcc(),
    BellmanFord(),
    BellmanFord(source=0),
    Mpsp([(0, 5), (1, 4)]),
    PageRank(iterations=3),
    PersonalizedPageRank([0], iterations=3),
    CompositeScore(iterations=3),
    Scc(),
]


def _edges_linear_region(edges_op):
    """All operators reachable from the edges input via linear ops only."""
    region = {edges_op}
    frontier = [edges_op]
    while frontier:
        op = frontier.pop()
        for downstream, _port in op.downstream:
            if isinstance(downstream, LINEAR) and downstream not in region:
                region.add(downstream)
                frontier.append(downstream)
    return region


@pytest.mark.parametrize(
    "computation", ALGORITHMS, ids=lambda c: type(c).__name__)
def test_exactly_one_edges_arrangement(computation):
    df = Dataflow()
    edges = df.new_input("edges")
    computation.build(df, edges)

    region = _edges_linear_region(edges.op)
    arrangements = set()
    private_joins = []
    for op in region:
        for downstream, port in op.downstream:
            if isinstance(downstream, ArrangeEnterOp):
                continue  # scope re-entry of an existing arrangement
            if isinstance(downstream, ArrangeOp):
                arrangements.add(downstream)
            elif isinstance(downstream, JoinOp):
                private_joins.append((downstream.name, port))
            elif isinstance(downstream, JoinArrangedOp) and port == 0:
                # Port 0 is the *stream* side: the edges would be replayed
                # record-by-record against some other arrangement.
                private_joins.append((downstream.name, port))

    assert len(arrangements) == 1, (
        f"{computation.name}: expected exactly one edges arrangement, "
        f"found {sorted(a.name for a in arrangements)}")
    assert not private_joins, (
        f"{computation.name}: edges relation feeds private join(s) "
        f"{private_joins} instead of the shared arrangement")


def test_region_walk_sees_through_linear_chains():
    """Sanity-check the walker itself: an arrangement behind a map chain
    is found; one behind a reduce is not."""
    df = Dataflow()
    edges = df.new_input("edges")
    chained = edges.map(lambda rec: rec).filter(lambda rec: True)
    chained.arrange("behind.linear")
    edges.distinct().arrange("behind.reduce")
    region = _edges_linear_region(edges.op)
    found = [downstream.name
             for op in region
             for downstream, _ in op.downstream
             if isinstance(downstream, ArrangeOp)]
    assert found == ["behind.linear"]
