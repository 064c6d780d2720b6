"""Window builders and collection diagnostics."""

import pytest

from repro.core.diagnostics import summarize_collection
from repro.core.windows import (
    cumulative_windows,
    expand_shrink_slide,
    sliding_windows,
)
from repro.errors import ConfigError, GraphsurgeError
from repro.graph.property_graph import PropertyGraph
from repro.graph.schema import PropertyType, Schema


@pytest.fixture(scope="module")
def year_graph():
    graph = PropertyGraph(
        "g", node_schema=Schema(),
        edge_schema=Schema({"year": PropertyType.INT}))
    for node in range(12):
        graph.add_node(node)
    for year in range(2000, 2012):
        graph.add_edge(year - 2000, (year - 1999) % 12, {"year": year})
    return graph


class TestCumulativeWindows:
    def test_inclusion_chain(self, year_graph):
        definition = cumulative_windows("c", "g", "year",
                                        bounds=[2004, 2008, 2012])
        collection = definition.materialize(year_graph)
        assert collection.view_sizes == [4, 8, 12]
        for diff in collection.diffs:
            assert all(mult == 1 for mult in diff.values())

    def test_requires_bounds(self):
        with pytest.raises(GraphsurgeError):
            cumulative_windows("c", "g", "year", bounds=[])

    def test_empty_bounds_raise_config_error_naming_builder(self):
        # Regression: an empty bounds iterable (easy to produce from a
        # mis-ranged `range(...)`) must surface as a ConfigError whose
        # message says *which* builder was misconfigured, not a generic
        # engine error.
        with pytest.raises(ConfigError, match="cumulative_windows"):
            cumulative_windows("c", "g", "year", bounds=range(2020, 2010))


class TestSlidingWindows:
    def test_tumbling_disjoint(self, year_graph):
        definition = sliding_windows("s", "g", "year", start=2000,
                                     width=4, slide=4, count=3)
        collection = definition.materialize(year_graph)
        assert collection.view_sizes == [4, 4, 4]
        previous = set()
        for index in range(3):
            view = set(collection.full_view_edges(index))
            assert not (view & previous)
            previous = view

    def test_overlapping(self, year_graph):
        definition = sliding_windows("s", "g", "year", start=2000,
                                     width=6, slide=2, count=3)
        collection = definition.materialize(year_graph)
        assert collection.view_sizes == [6, 6, 6]
        first = set(collection.full_view_edges(0))
        second = set(collection.full_view_edges(1))
        assert len(first & second) == 4

    def test_validation(self):
        with pytest.raises(GraphsurgeError):
            sliding_windows("s", "g", "year", start=0, width=0, slide=1,
                            count=1)

    def test_validation_names_builder(self):
        with pytest.raises(ConfigError, match="sliding_windows"):
            sliding_windows("s", "g", "year", start=0, width=4, slide=4,
                            count=0)


class TestExpandShrinkSlide:
    def test_phases(self, year_graph):
        definition = expand_shrink_slide(
            "e", "g", "year",
            phases=[(2000, 2004), (2000, 2008), (2004, 2008)])
        collection = definition.materialize(year_graph)
        assert collection.view_sizes == [4, 8, 4]

    def test_empty_window_rejected(self):
        with pytest.raises(GraphsurgeError, match="empty window"):
            expand_shrink_slide("e", "g", "year", phases=[(5, 5)])

    def test_empty_phases_raise_config_error_naming_builder(self):
        with pytest.raises(ConfigError, match="expand_shrink_slide"):
            expand_shrink_slide("e", "g", "year", phases=[])


class TestDiagnostics:
    def test_summary_of_chain(self, year_graph):
        collection = cumulative_windows(
            "c", "g", "year", bounds=[2004, 2008, 2012]
        ).materialize(year_graph)
        summary = summarize_collection(collection)
        assert summary.num_views == 3
        assert summary.mean_churn == pytest.approx((4 / 8 + 4 / 12) / 2)
        assert summary.min_jaccard == pytest.approx(4 / 8)
        assert summary.likely_split_points() == []
        assert "diff-only execution" in summary.render()

    def test_summary_flags_disjoint_views(self, year_graph):
        collection = sliding_windows(
            "s", "g", "year", start=2000, width=4, slide=4, count=3
        ).materialize(year_graph)
        summary = summarize_collection(collection)
        assert summary.min_jaccard == 0.0
        assert summary.likely_split_points() == [1, 2]
        assert "split points" in summary.render()

    def test_explain_via_facade(self, year_graph):
        from repro import Graphsurge

        gs = Graphsurge()
        gs.add_graph(year_graph)
        gs.execute("create view collection c on g "
                   "[a: year < 2004], [b: year < 2012]")
        text = gs.explain("c")
        assert "collection c" in text
        assert "2 views" in text
