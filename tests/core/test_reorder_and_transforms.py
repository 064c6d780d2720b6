"""reorder_collection keeps every view and reduces the diffs."""

from repro.core.view_collection import reorder_collection
from repro.bench.workloads import perturbation_collection
from repro.datasets import community_graph


class TestReorderCollection:
    def test_reordering_reduces_diffs(self):
        graph = community_graph(num_nodes=80, num_communities=6,
                                intra_edges=300, background_edges=50,
                                seed=2)
        shuffled = perturbation_collection(graph, 5, 2,
                                           order_method="random", seed=3)
        reordered = reorder_collection(shuffled, "christofides")
        assert reordered.total_diffs < shuffled.total_diffs
        assert sorted(reordered.view_names) == sorted(shuffled.view_names)

    def test_views_preserved_under_reordering(self):
        graph = community_graph(num_nodes=50, num_communities=4,
                                intra_edges=150, background_edges=20,
                                seed=4)
        original = perturbation_collection(graph, 4, 2,
                                           order_method="random", seed=1)
        reordered = reorder_collection(original, "christofides")
        # Same set of views (as edge sets), possibly in another order.
        original_views = {
            original.view_names[i]: frozenset(original.full_view_edges(i))
            for i in range(original.num_views)}
        for index, name in enumerate(reordered.view_names):
            assert frozenset(reordered.full_view_edges(index)) == \
                original_views[name]
