"""CSV loading and the graph/view stores."""

import pytest

from repro.errors import SchemaError, StoreError, UnknownGraphError
from repro.graph.csv_loader import load_graph_csv
from repro.graph.property_graph import PropertyGraph
from repro.graph.schema import Schema
from repro.graph.store import GraphStore, ViewStore


@pytest.fixture
def csv_files(tmp_path):
    nodes = tmp_path / "nodes.csv"
    edges = tmp_path / "edges.csv"
    nodes.write_text(
        "id,city:str,vip:bool\n"
        "1,LA,true\n"
        "2,NY,false\n"
        "3,LA,true\n")
    edges.write_text(
        "src,dst,duration:int\n"
        "1,2,7\n"
        "2,3,19\n")
    return nodes, edges


class TestCsvLoading:
    def test_load_graph(self, csv_files):
        nodes, edges = csv_files
        graph = load_graph_csv("calls", nodes, edges)
        assert graph.num_nodes == 3
        assert graph.num_edges == 2
        assert graph.node_property(1, "vip") is True
        assert graph.edges[0].properties["duration"] == 7

    def test_missing_id_column(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("name\nx\n")
        with pytest.raises(SchemaError, match="'id' column"):
            load_graph_csv("g", bad, bad)

    def test_bad_edges_header(self, csv_files, tmp_path):
        nodes, _edges = csv_files
        bad = tmp_path / "bad_edges.csv"
        bad.write_text("from,to\n1,2\n")
        with pytest.raises(SchemaError, match="src,dst"):
            load_graph_csv("g", nodes, bad)

    def test_column_count_mismatch(self, csv_files, tmp_path):
        nodes, _ = csv_files
        bad = tmp_path / "bad_edges.csv"
        bad.write_text("src,dst,duration:int\n1,2\n")
        with pytest.raises(SchemaError, match="expected 3 columns"):
            load_graph_csv("g", nodes, bad)

    def test_empty_file(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        with pytest.raises(SchemaError, match="empty"):
            load_graph_csv("g", empty, empty)

    def test_headers_declare_the_schemas(self, csv_files):
        graph = load_graph_csv("calls", *csv_files)
        assert graph.node_schema == Schema.from_header(["city:str",
                                                        "vip:bool"])
        assert graph.edge_schema == Schema.from_header(["duration:int"])

    def test_blank_lines_are_skipped(self, csv_files):
        nodes, edges = csv_files
        edges.write_text("src,dst,duration:int\n\n1,2,7\n\n")
        assert load_graph_csv("calls", nodes, edges).num_edges == 1

    def test_edges_get_sequential_ids_in_file_order(self, csv_files):
        graph = load_graph_csv("calls", *csv_files)
        assert [(e.id, e.src, e.dst) for e in graph.edges] == [
            (0, 1, 2), (1, 2, 3)]

    def test_edge_to_unknown_node_rejected(self, csv_files, tmp_path):
        nodes, _ = csv_files
        bad = tmp_path / "bad_edges.csv"
        bad.write_text("src,dst,duration:int\n1,9,7\n")
        with pytest.raises(SchemaError, match="unknown destination node 9"):
            load_graph_csv("g", nodes, bad)

    def test_duplicate_node_id_rejected(self, csv_files, tmp_path):
        _, edges = csv_files
        bad = tmp_path / "bad_nodes.csv"
        bad.write_text("id,city:str,vip:bool\n1,LA,true\n1,NY,false\n")
        with pytest.raises(SchemaError, match="duplicate node id 1"):
            load_graph_csv("g", bad, edges)

    def test_badly_typed_value_rejected(self, csv_files, tmp_path):
        nodes, _ = csv_files
        bad = tmp_path / "bad_edges.csv"
        bad.write_text("src,dst,duration:int\n1,2,long\n")
        with pytest.raises(SchemaError, match="as int"):
            load_graph_csv("g", nodes, bad)


class TestGraphStore:
    def test_add_get(self):
        store = GraphStore()
        graph = PropertyGraph("g")
        store.add(graph)
        assert store.get("g") is graph
        assert "g" in store

    def test_add_under_another_name(self):
        store = GraphStore()
        store.add(PropertyGraph("g"), name="alias")
        store.add(PropertyGraph("h"))
        assert list(store.names()) == ["alias", "h"]
        assert "g" not in store

    def test_duplicate_rejected(self):
        store = GraphStore()
        store.add(PropertyGraph("g"))
        with pytest.raises(StoreError, match="already exists"):
            store.add(PropertyGraph("g"))

    def test_unknown_raises(self):
        with pytest.raises(UnknownGraphError):
            GraphStore().get("nope")


class TestViewStore:
    def test_views_and_collections_share_namespace(self):
        store = ViewStore()
        store.add_view("v", PropertyGraph("v"))
        with pytest.raises(StoreError):
            store.add_collection("v", object())
        store.add_collection("c", object())
        with pytest.raises(StoreError):
            store.add_view("c", PropertyGraph("c"))

    def test_lookups(self):
        store = ViewStore()
        view = PropertyGraph("v")
        store.add_view("v", view)
        assert store.get_view("v") is view
        assert store.has_view("v")
        assert not store.has_collection("v")
        with pytest.raises(UnknownGraphError):
            store.get_collection("v")
        with pytest.raises(UnknownGraphError):
            store.get_view("missing")

    def test_names_in_insertion_order(self):
        store = ViewStore()
        store.add_view("v2", PropertyGraph("v2"))
        store.add_collection("c", object())
        store.add_view("v1", PropertyGraph("v1"))
        assert list(store.view_names()) == ["v2", "v1"]
        assert list(store.collection_names()) == ["c"]
