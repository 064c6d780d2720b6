"""EBM construction and edge-difference-stream invariants."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.diff_stream import (
    accumulate_view,
    compute_diff_stream,
    diff_sizes,
    view_sizes_from_diffs,
)
from repro.core.ebm import EdgeBooleanMatrix, build_ebm
from repro.core.resilience import FaultPlan
from repro.errors import GvdlTypeError, InjectedFault, UnknownPropertyError
from repro.graph.edge_stream import EdgeStream
from repro.graph.property_graph import PropertyGraph
from repro.graph.schema import PropertyType, Schema
from repro.gvdl.parser import parse
from repro.gvdl.predicate import compile_predicate
from repro.timely.meter import WorkMeter
from repro.timely.worker import shard_for

bool_matrices = st.integers(1, 8).flatmap(
    lambda k: st.lists(
        st.lists(st.booleans(), min_size=k, max_size=k),
        min_size=1, max_size=12))


def ebm_from_rows(rows):
    edges = [(i, i, i + 1, 1) for i in range(len(rows))]
    names = [f"v{j}" for j in range(len(rows[0]))]
    return EdgeBooleanMatrix(edges, names, np.array(rows, dtype=bool))


class TestEbm:
    def test_build_from_predicates(self, call_graph):
        predicates = [
            parse(f"create view v on g edges where duration <= {d}").predicate
            for d in (1, 10, 35)]
        ebm = build_ebm(call_graph, ["d1", "d10", "d35"], predicates)
        assert len(ebm.edges) == 15
        assert ebm.num_views == 3
        assert ebm.matrix[:, 2].sum() == 15  # everything satisfies d<=35
        # Columns are monotone: duration<=1 implies duration<=10.
        assert np.all(ebm.matrix[:, 0] <= ebm.matrix[:, 1])

    def test_reorder_permutes_columns(self):
        ebm = ebm_from_rows([[True, False], [False, True]])
        flipped = ebm.reorder([1, 0])
        assert flipped.view_names == ["v1", "v0"]
        assert flipped.matrix[0].tolist() == [False, True]

    def test_reorder_validates_permutation(self):
        ebm = ebm_from_rows([[True, False]])
        with pytest.raises(ValueError, match="invalid column order"):
            ebm.reorder([0, 0])

    def test_mismatched_names_rejected(self, call_graph):
        with pytest.raises(ValueError, match="one predicate per view"):
            build_ebm(call_graph, ["a"], [])

    def test_weight_property(self, call_graph):
        predicate = parse(
            "create view v on g edges where true").predicate
        ebm = build_ebm(call_graph, ["all"], [predicate],
                        weight_property="duration")
        weights = {edge[3] for edge in ebm.edges}
        assert 34 in weights


class TestDiffStream:
    def test_paper_figure_5(self):
        """Figure 5a -> Figure 5b exactly."""
        rows = [
            [1, 0, 0],
            [1, 0, 1],
            [0, 0, 1],
            [0, 1, 1],
            [1, 1, 1],
        ]
        ebm = ebm_from_rows([[bool(x) for x in row] for row in rows])
        diffs = compute_diff_stream(ebm)
        def as_signs(diff):
            return {eid: mult for (eid, _s, _d, _w), mult in diff.items()}
        assert as_signs(diffs[0]) == {0: 1, 1: 1, 4: 1}
        assert as_signs(diffs[1]) == {0: -1, 1: -1, 3: 1}
        assert as_signs(diffs[2]) == {1: 1, 2: 1}

    @settings(max_examples=40, deadline=None)
    @given(bool_matrices)
    def test_accumulation_reconstructs_views(self, rows):
        ebm = ebm_from_rows(rows)
        diffs = compute_diff_stream(ebm)
        for j in range(ebm.num_views):
            view = accumulate_view(diffs, j)
            expected = {ebm.edges[i] for i in range(len(ebm.edges))
                        if rows[i][j]}
            assert set(view) == expected
            assert all(mult == 1 for mult in view.values())

    @settings(max_examples=40, deadline=None)
    @given(bool_matrices)
    def test_view_sizes_match_column_sums(self, rows):
        ebm = ebm_from_rows(rows)
        diffs = compute_diff_stream(ebm)
        assert view_sizes_from_diffs(diffs) == ebm.matrix.sum(axis=0).tolist()

    @settings(max_examples=40, deadline=None)
    @given(bool_matrices)
    def test_diff_count_equals_row_alternations(self, rows):
        ebm = ebm_from_rows(rows)
        diffs = compute_diff_stream(ebm)
        expected = 0
        for row in rows:
            previous = False
            for cell in row:
                if cell != previous:
                    expected += 1
                previous = cell
        assert sum(diff_sizes(diffs)) == expected

    def test_diff_sizes(self):
        ebm = ebm_from_rows([[True, False, True]])
        assert diff_sizes(compute_diff_stream(ebm)) == [1, 1, 1]

    def test_corrupt_stream_detected(self):
        edge = (0, 0, 1, 1)
        with pytest.raises(ValueError, match="corrupt"):
            accumulate_view([{edge: 1}, {edge: 1}], 1)


# -- build_ebm contract pins (numbers taken from the TimelyDataflow version) --

def seeded_graph(seed=5, nodes=23, edges=157):
    """A schema-less multigraph with a ``w`` edge property and a ``c`` node
    property; parallel edges and self-loops included."""
    rng = random.Random(seed)
    graph = PropertyGraph("g")
    for node in range(nodes):
        graph.add_node(node, {"c": rng.randrange(4)})
    for _ in range(edges):
        graph.add_edge(rng.randrange(nodes), rng.randrange(nodes),
                       {"w": rng.randrange(1, 9)})
    return graph


def mutated_graph():
    """``seeded_graph`` after removals and appends: edge ids have holes."""
    graph = seeded_graph()
    for edge in list(graph.edges[::7]):
        graph.remove_edges(edge.src, edge.dst)
    for node in range(5):
        graph.add_edge(node, node + 1, {"w": node + 1})
    ids = [edge.id for edge in graph.edges]
    assert ids == sorted(ids) and ids != list(range(len(ids)))
    return graph


def pin_views():
    sources = ["w <= 3", "src.c = 1 or dst.c = 2", "true",
               "w > 6 and src.c != 0"]
    return ([f"v{i}" for i in range(len(sources))],
            [parse(f"create view v on g edges where {src}").predicate
             for src in sources])


class TestBuildEbmContract:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    @pytest.mark.parametrize("make_graph", [seeded_graph, mutated_graph])
    def test_meter_charges_two_supersteps(self, make_graph, workers):
        graph = make_graph()
        m = graph.num_edges
        buckets = [0] * workers
        for edge in graph.edges:
            buckets[shard_for(edge.src, workers)] += 1
        meter = WorkMeter(workers)
        build_ebm(graph, *pin_views(), meter=meter, workers=workers)
        assert meter.total_work == 2 * m
        assert meter.supersteps == 2
        assert meter.parallel_time == -(-m // workers) + max(buckets)

    def test_unknown_weight_property_is_refused(self):
        with pytest.raises(UnknownPropertyError, match="nosuch"):
            build_ebm(seeded_graph(), *pin_views(),
                      weight_property="nosuch")

    @pytest.mark.parametrize("weight", [None, "w"])
    @pytest.mark.parametrize("make_graph", [seeded_graph, mutated_graph])
    def test_edges_are_the_edge_stream(self, make_graph, weight):
        graph = make_graph()
        names, predicates = pin_views()
        ebm = build_ebm(graph, names, predicates, weight_property=weight,
                        workers=3)
        assert ebm.edges == EdgeStream.from_graph(graph, weight).edges
        evaluators = [compile_predicate(p) for p in predicates]
        expected = [[bool(evaluate(edge.properties,
                                   graph.nodes[edge.src].properties,
                                   graph.nodes[edge.dst].properties))
                     for evaluate in evaluators] for edge in graph.edges]
        assert ebm.matrix.dtype == bool
        assert ebm.matrix.tolist() == expected

    def test_operator_fault_fires_at_its_unit(self):
        """``WorkMeter.record`` fires the ``operator`` site once per unit,
        so a fault placed in the second superstep (offset > m) lands on
        the same unit, on the same worker's shard, however units are
        batched."""
        graph = seeded_graph()
        m, workers = graph.num_edges, 2
        on_worker_0 = sum(shard_for(edge.src, workers) == 0
                          for edge in graph.edges)
        assert 0 < on_worker_0 < m - 1
        at = m + on_worker_0 + 1    # second unit of worker 1's shard
        plan = FaultPlan.single("operator", at=at)
        with pytest.raises(InjectedFault) as caught:
            build_ebm(graph, *pin_views(),
                      meter=WorkMeter(workers, fault_plan=plan),
                      workers=workers)
        assert caught.value.invocation == at
        assert caught.value.context == "1"
        assert plan._counters["operator"] == at + 1

    def test_corrupt_fault_inflates_one_unit(self):
        graph = seeded_graph()
        m = graph.num_edges
        plan = FaultPlan.single("operator", at=m + 5, kind="corrupt")
        meter = WorkMeter(2, fault_plan=plan)
        build_ebm(graph, *pin_views(), meter=meter, workers=2)
        assert meter.total_work == 2 * m + 999
        assert plan._counters["operator"] == 2 * m

    def test_predicate_errors_surface_unwrapped(self):
        def predicate(source):
            return parse(
                f"create view v on g edges where {source}").predicate

        graph = seeded_graph()
        with pytest.raises(UnknownPropertyError, match="no property 'nope'"):
            build_ebm(graph, ["a"], [predicate("nope = 1")], workers=2)
        with pytest.raises(GvdlTypeError, match="cannot compare"):
            build_ebm(graph, ["a"], [predicate("w < 'x'")], workers=2)
        # A graph with a schema rejects the reference at compile time.
        typed = PropertyGraph("t",
                              edge_schema=Schema({"w": PropertyType.INT}))
        with pytest.raises(UnknownPropertyError, match="unknown edge"):
            build_ebm(typed, ["a"], [predicate("nope = 1")])


# -- compute_diff_stream contract pins (numbers taken from the per-cell loop) --

class TestDiffStreamContract:
    @staticmethod
    def ordered_ebm(make_graph, workers):
        """The pin views in a non-identity order, so retractions occur."""
        ebm = build_ebm(make_graph(), *pin_views(), workers=workers)
        return ebm.reorder([2, 0, 3, 1])

    @pytest.mark.parametrize("workers", [1, 2, 4])
    @pytest.mark.parametrize("make_graph", [seeded_graph, mutated_graph])
    def test_meter_charges_one_superstep(self, make_graph, workers):
        ebm = self.ordered_ebm(make_graph, workers)
        meter = WorkMeter(workers)
        diffs = compute_diff_stream(ebm, meter=meter)
        buckets = [0] * workers
        for diff in diffs:
            for _eid, src, _dst, _w in diff:
                buckets[shard_for(src, workers)] += 1
        assert any(mult < 0 for diff in diffs for mult in diff.values())
        assert meter.total_work == sum(diff_sizes(diffs))
        assert meter.supersteps == 1
        assert meter.parallel_time == max(buckets)

    @pytest.mark.parametrize("make_graph", [seeded_graph, mutated_graph])
    def test_iteration_order_and_value_types(self, make_graph):
        """Each view's dict iterates its edges in ascending row order and
        holds Python ints (the diffs are pickled, persisted and hashed)."""
        ebm = self.ordered_ebm(make_graph, 1)
        diffs = compute_diff_stream(ebm)
        matrix = ebm.matrix.astype(int).tolist()
        expected = []
        for col in range(ebm.num_views):
            items = []
            for row, edge in enumerate(ebm.edges):
                delta = matrix[row][col] - (matrix[row][col - 1] if col else 0)
                if delta:
                    items.append((edge, delta))
            expected.append(items)
        assert [list(d.items()) for d in diffs] == expected
        assert all(type(mult) is int for d in diffs for mult in d.values())

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_no_differences_no_superstep(self, workers):
        ebm = ebm_from_rows([[False, False], [False, False]])
        meter = WorkMeter(workers)
        assert compute_diff_stream(ebm, meter=meter) == [{}, {}]
        assert (meter.total_work, meter.parallel_time,
                meter.supersteps) == (0, 0, 0)

    def test_operator_fault_fires_at_its_unit(self):
        ebm = self.ordered_ebm(seeded_graph, 2)
        total = sum(diff_sizes(compute_diff_stream(ebm)))
        at = total // 2
        plan = FaultPlan.single("operator", at=at)
        with pytest.raises(InjectedFault) as caught:
            compute_diff_stream(ebm, meter=WorkMeter(2, fault_plan=plan))
        assert caught.value.invocation == at
        assert plan._counters["operator"] == at + 1

    def test_corrupt_fault_inflates_one_unit(self):
        ebm = self.ordered_ebm(seeded_graph, 2)
        total = sum(diff_sizes(compute_diff_stream(ebm)))
        plan = FaultPlan.single("operator", at=total - 3, kind="corrupt")
        meter = WorkMeter(2, fault_plan=plan)
        compute_diff_stream(ebm, meter=meter)
        assert meter.total_work == total + 999
        assert plan._counters["operator"] == total
