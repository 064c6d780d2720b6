"""End-to-end profiling tests: tracing must observe, never perturb.

The load-bearing invariant (PR 2): the metered ``total_work`` and
``parallel_time`` of the fig6/fig10 workloads are byte-identical with
tracing on or off, and each view's critical-path length equals the
meter's ``parallel_time`` delta for that view exactly.
"""

import json

import pytest

from repro.algorithms.bfs import Bfs
from repro.algorithms.wcc import Wcc
from repro.bench.workloads import (
    CSIM_WINDOWS,
    csim_collection,
    default_so_graph,
    scalability_collection,
)
from repro.core.executor import AnalyticsExecutor, ExecutionMode
from repro.observe import TraceSink, validate_chrome_trace


@pytest.fixture(scope="module")
def fig10_collection():
    _graph, collection = scalability_collection(80, 400)
    return collection


@pytest.fixture(scope="module")
def fig6_collection():
    graph = default_so_graph(scale=0.2)
    return csim_collection(graph, CSIM_WINDOWS["2y"], max_views=4)


def run_traced_and_plain(collection, computation_cls, workers,
                         mode=ExecutionMode.DIFF_ONLY):
    plain = AnalyticsExecutor(workers=workers).run_on_collection(
        computation_cls(), collection, mode=mode, cost_metric="work")
    sink = TraceSink(workers)
    traced = AnalyticsExecutor(workers=workers, tracer=sink) \
        .run_on_collection(computation_cls(), collection, mode=mode,
                           cost_metric="work")
    return plain, traced, sink


class TestTracingDoesNotPerturbCounters:
    @pytest.mark.parametrize("workers", [1, 4])
    def test_fig10_counters_identical(self, fig10_collection, workers):
        plain, traced, _sink = run_traced_and_plain(
            fig10_collection, Wcc, workers)
        assert traced.total_work == plain.total_work
        assert traced.total_parallel_time == plain.total_parallel_time
        for before, after in zip(plain.views, traced.views):
            assert after.work == before.work
            assert after.parallel_time == before.parallel_time

    @pytest.mark.parametrize("workers", [1, 4])
    def test_fig6_counters_identical(self, fig6_collection, workers):
        plain, traced, _sink = run_traced_and_plain(
            fig6_collection, Wcc, workers)
        assert traced.total_work == plain.total_work
        assert traced.total_parallel_time == plain.total_parallel_time

    def test_adaptive_mode_counters_identical(self, fig10_collection):
        plain, traced, _sink = run_traced_and_plain(
            fig10_collection, Bfs, 2, mode=ExecutionMode.ADAPTIVE)
        assert traced.total_work == plain.total_work
        assert traced.total_parallel_time == plain.total_parallel_time


class TestCriticalPathEqualsParallelTime:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_per_view_exact_equality(self, fig10_collection, workers):
        _plain, traced, _sink = run_traced_and_plain(
            fig10_collection, Wcc, workers)
        for view in traced.views:
            assert view.profile is not None
            assert view.profile.critical_path.length == view.parallel_time
            assert view.profile.work == view.work

    def test_contributors_sum_to_path_length(self, fig10_collection):
        _plain, traced, _sink = run_traced_and_plain(
            fig10_collection, Wcc, 4)
        for view in traced.views:
            path = view.profile.critical_path
            assert sum(c.units for c in path.contributors) == path.length

    def test_collection_profile_aggregates_views(self, fig10_collection):
        _plain, traced, _sink = run_traced_and_plain(
            fig10_collection, Wcc, 2)
        assert traced.profile is not None
        assert len(traced.profile.views) == len(traced.views)
        slowest = traced.profile.slowest()
        assert slowest.critical_path.length == max(
            v.parallel_time for v in traced.views)

    def test_sink_total_units_equals_total_work(self, fig10_collection):
        _plain, traced, sink = run_traced_and_plain(
            fig10_collection, Wcc, 2)
        assert sink.total_units == traced.total_work


class TestProfileReport:
    def test_facade_profile_and_chrome_trace(self, tmp_path):
        from repro.core.system import Graphsurge

        graph, collection = scalability_collection(60, 300)
        session = Graphsurge(workers=2)
        session.add_graph(graph)
        session.views.add_collection(collection.name, collection)
        trace_path = tmp_path / "trace.json"
        report = session.profile(Wcc(), collection.name,
                                 trace_out=trace_path)
        text = report.render()
        assert "critical path for" in text
        assert "work rollup" in text
        payload = json.loads(trace_path.read_text())
        assert validate_chrome_trace(payload) > 0
        assert payload["otherData"]["parallel_time_units"] > 0

    def test_explain_names_the_slowest_view(self):
        from repro.core.system import Graphsurge

        graph, collection = scalability_collection(60, 300)
        session = Graphsurge(workers=2)
        session.add_graph(graph)
        session.views.add_collection(collection.name, collection)
        report = session.profile(Wcc(), collection.name)
        slowest = report.result.profile.slowest()
        text = session.explain(collection.name, run_result=report.result)
        assert f"slowest view: {slowest.view_name!r}" in text
        assert str(slowest.critical_path.length) in text

    def test_single_view_run_carries_profile(self):
        from repro.core.system import Graphsurge

        graph, _collection = scalability_collection(60, 300)
        session = Graphsurge(workers=2)
        session.add_graph(graph)
        report = session.profile(Wcc(), graph.name)
        assert report.result.profile is not None
        assert report.result.profile.critical_path.length == \
            report.result.parallel_time
