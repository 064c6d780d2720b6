"""PropertyGraph construction, queries, filtered views, edge records."""

import pytest

from repro.errors import SchemaError, UnknownPropertyError
from repro.graph.property_graph import PropertyGraph
from repro.graph.schema import PropertyType, Schema


class TestConstruction:
    def test_counts(self, call_graph):
        assert call_graph.num_nodes == 8
        assert call_graph.num_edges == 15

    def test_duplicate_node_rejected(self):
        graph = PropertyGraph("g")
        graph.add_node(1)
        with pytest.raises(SchemaError, match="duplicate node"):
            graph.add_node(1)

    def test_edge_requires_known_endpoints(self):
        graph = PropertyGraph("g")
        graph.add_node(1)
        with pytest.raises(SchemaError, match="unknown destination"):
            graph.add_edge(1, 2)
        with pytest.raises(SchemaError, match="unknown source"):
            graph.add_edge(3, 1)

    def test_schema_enforced_on_properties(self):
        graph = PropertyGraph(
            "g", node_schema=Schema({"age": PropertyType.INT}))
        graph.add_node(1, {"age": "30"})
        assert graph.nodes[1].properties["age"] == 30
        with pytest.raises(SchemaError):
            graph.add_node(2, {})

    def test_edge_ids_sequential(self, call_graph):
        assert [e.id for e in call_graph.edges] == list(range(15))


class TestQueries:
    def test_node_property(self, call_graph):
        assert call_graph.node_property(1, "city") == "LA"

    def test_node_property_errors(self, call_graph):
        with pytest.raises(UnknownPropertyError, match="unknown node id"):
            call_graph.node_property(99, "city")
        with pytest.raises(UnknownPropertyError, match="no property"):
            call_graph.node_property(1, "height")


class TestFilteredViews:
    def test_filter_keeps_matching_edges(self, call_graph):
        view = call_graph.filter_edges(
            lambda edge, src, dst: edge.properties["year"] == 2019)
        assert view.num_edges == 8
        assert view.num_nodes == call_graph.num_nodes

    def test_filter_with_node_predicates(self, call_graph):
        view = call_graph.filter_edges(
            lambda edge, src, dst: src["city"] == "LA"
            and dst["city"] == "LA")
        for edge in view.edges:
            assert view.node_property(edge.src, "city") == "LA"
            assert view.node_property(edge.dst, "city") == "LA"

    def test_view_is_independent_copy(self, call_graph):
        view = call_graph.filter_edges(lambda e, s, d: True)
        view.add_edge(1, 2, {"duration": 1, "year": 2000})
        assert view.num_edges == call_graph.num_edges + 1
