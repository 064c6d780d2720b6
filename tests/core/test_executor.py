"""The analytics executor: modes, outputs, costs, and splitting behavior."""

import pytest

from repro.algorithms import Bfs, Wcc
from repro.algorithms.reference import reference_bfs, reference_wcc
from repro.core.executor import AnalyticsExecutor, ExecutionMode
from repro.core.splitting.optimizer import SplitDecision
from repro.core.view_collection import collection_from_diffs
from repro.errors import ComputationError
from repro.graph.edge_stream import EdgeStream


def chain_collection(num_views=6):
    """Views growing a simple chain 0->1->...->k one edge per view."""
    diffs = []
    for index in range(num_views):
        diffs.append({(index, index, index + 1, 1): 1})
    return collection_from_diffs("chain", diffs)


class TestSingleView:
    def test_run_on_view_matches_reference(self):
        stream = EdgeStream([(0, 0, 1, 1), (1, 1, 2, 1), (2, 0, 2, 1)])
        result = AnalyticsExecutor().run_on_view(Bfs(), stream)
        triples = [(s, d, w) for _e, s, d, w in stream]
        assert result.vertex_map() == reference_bfs(triples)
        assert result.work > 0
        assert result.view_size == 3

    def test_vertex_map_requires_output(self):
        result = AnalyticsExecutor().run_on_collection(
            Bfs(), chain_collection()).views[0]
        with pytest.raises(ComputationError, match="not kept"):
            result.vertex_map()


class TestModes:
    @pytest.mark.parametrize("mode", list(ExecutionMode))
    def test_outputs_identical_across_modes(self, mode):
        collection = chain_collection()
        result = AnalyticsExecutor().run_on_collection(
            Wcc(), collection, mode=mode, keep_outputs=True,
            cost_metric="work")
        for index in range(collection.num_views):
            triples = [(s, d, w) for (_e, s, d, w)
                       in collection.full_view_edges(index)]
            assert result.views[index].vertex_map() == \
                reference_wcc(triples), f"{mode} view {index}"

    def test_scratch_runs_every_view_fresh(self):
        collection = chain_collection()
        result = AnalyticsExecutor().run_on_collection(
            Wcc(), collection, mode=ExecutionMode.SCRATCH)
        assert all(v.strategy.value == "scratch" for v in result.views)

    def test_diff_only_never_splits(self):
        collection = chain_collection()
        result = AnalyticsExecutor().run_on_collection(
            Wcc(), collection, mode=ExecutionMode.DIFF_ONLY)
        assert result.split_points == []
        assert [v.strategy.value for v in result.views][1:] == \
            ["differential"] * (collection.num_views - 1)

    def test_diff_only_cheaper_on_incremental_chain(self):
        collection = chain_collection(10)
        executor = AnalyticsExecutor()
        diff = executor.run_on_collection(
            Wcc(), collection, mode=ExecutionMode.DIFF_ONLY)
        scratch = executor.run_on_collection(
            Wcc(), collection, mode=ExecutionMode.SCRATCH)
        assert diff.total_work < scratch.total_work

    def test_adaptive_records_strategies(self):
        collection = chain_collection()
        result = AnalyticsExecutor().run_on_collection(
            Wcc(), collection, mode=ExecutionMode.ADAPTIVE,
            cost_metric="work")
        strategies = [view.strategy for view in result.views]
        assert len(strategies) == collection.num_views
        assert SplitDecision.SCRATCH in strategies  # first view at least

    def test_output_diff_sizes_reported(self):
        collection = chain_collection()
        result = AnalyticsExecutor().run_on_collection(
            Wcc(), collection, mode=ExecutionMode.DIFF_ONLY)
        # Adding edge (k, k+1) labels one new vertex with component 0 per
        # view: diff of size 1 (plus the very first view's two records).
        assert result.views[0].output_diff_size == 2
        assert all(v.output_diff_size >= 1 for v in result.views[1:])

    def test_output_diff_stream_kept_on_request(self):
        collection = chain_collection(4)
        result = AnalyticsExecutor().run_on_collection(
            Wcc(), collection, mode=ExecutionMode.DIFF_ONLY,
            keep_output_diffs=True)
        # Accumulating the per-view output diffs reproduces the final
        # accumulated output — difference-stream semantics end to end.
        accumulated = {}
        for view in result.views:
            assert view.output_diff is not None
            for rec, mult in view.output_diff.items():
                accumulated[rec] = accumulated.get(rec, 0) + mult
        accumulated = {r: m for r, m in accumulated.items() if m}
        final = AnalyticsExecutor().run_on_collection(
            Wcc(), collection, mode=ExecutionMode.DIFF_ONLY,
            keep_outputs=True).views[-1].output
        assert accumulated == final

    def test_output_diff_not_kept_by_default(self):
        collection = chain_collection(3)
        result = AnalyticsExecutor().run_on_collection(
            Wcc(), collection, mode=ExecutionMode.DIFF_ONLY)
        assert all(view.output_diff is None for view in result.views)

    def test_bad_cost_metric_rejected(self):
        with pytest.raises(ComputationError, match="cost metric"):
            AnalyticsExecutor().run_on_collection(
                Wcc(), chain_collection(), cost_metric="vibes")

    def test_work_accounting_sums(self):
        collection = chain_collection()
        result = AnalyticsExecutor().run_on_collection(
            Wcc(), collection, mode=ExecutionMode.DIFF_ONLY)
        assert result.total_work == sum(v.work for v in result.views)


class TestComputationValidation:
    def test_non_root_result_rejected(self):
        from repro.core.computation import GraphComputation

        class Broken(GraphComputation):
            name = "broken"

            def build(self, dataflow, edges):
                holder = {}

                def body(inner, scope):
                    holder["inner"] = inner
                    return inner.map(lambda rec: rec)

                edges.map(lambda rec: (rec[0], 0)).iterate(body)
                return holder["inner"]

        with pytest.raises(ComputationError, match="root-scope"):
            AnalyticsExecutor().run_on_collection(
                Broken(), chain_collection())
