"""The clustering coefficient against its reference."""

import pytest

from repro.algorithms import ClusteringCoefficient
from repro.algorithms.reference import reference_clustering
from repro.core.executor import AnalyticsExecutor, ExecutionMode
from tests.algorithms.test_against_reference import churn_collection, stream_of
from tests.conftest import random_simple_digraph


class TestClusteringCoefficient:
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_reference(self, seed):
        triples = random_simple_digraph(16, 50, seed)
        result = AnalyticsExecutor().run_on_view(ClusteringCoefficient(),
                                                 stream_of(triples))
        assert result.vertex_map() == reference_clustering(triples)

    def test_triangle_graph(self):
        triples = [(0, 1, 1), (1, 2, 1), (0, 2, 1)]
        result = AnalyticsExecutor().run_on_view(ClusteringCoefficient(),
                                                 stream_of(triples))
        assert result.vertex_map() == {0: (1, 1), 1: (1, 1), 2: (1, 1)}

    def test_star_has_zero_clustering(self):
        triples = [(0, i, 1) for i in range(1, 5)]
        result = AnalyticsExecutor().run_on_view(ClusteringCoefficient(),
                                                 stream_of(triples))
        assert result.vertex_map() == {0: (0, 6)}

    def test_incremental_across_views(self):
        collection = churn_collection(seed=10, num_views=5)
        result = AnalyticsExecutor().run_on_collection(
            ClusteringCoefficient(), collection,
            mode=ExecutionMode.DIFF_ONLY, keep_outputs=True)
        for index in range(collection.num_views):
            triples = [(s, d, w) for (_e, s, d, w)
                       in collection.full_view_edges(index)]
            assert result.views[index].vertex_map() == \
                reference_clustering(triples), f"view {index}"
