"""SNAP-format loaders."""

import pytest

from repro.errors import SchemaError
from repro.graph.loaders import (
    load_communities,
    load_snap_edge_list,
    load_snap_temporal,
)


class TestEdgeList:
    def test_basic(self, tmp_path):
        path = tmp_path / "graph.txt"
        path.write_text("# comment\n0 1\n1 2\n\n2 0\n")
        graph = load_snap_edge_list(path)
        assert graph.name == "graph"
        assert graph.num_nodes == 3
        assert graph.num_edges == 3
        assert [(e.src, e.dst) for e in graph.edges] == [(0, 1), (1, 2),
                                                         (2, 0)]

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "graph.txt"
        path.write_text("0\n")
        with pytest.raises(SchemaError, match="expected 'src dst'"):
            load_snap_edge_list(path)


class TestTemporal:
    def test_timestamps_become_properties(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("% header\n0 1 1209600000\n1 2 1209700000\n")
        graph = load_snap_temporal(path)
        assert graph.name == "t"
        assert graph.edges[0].properties["ts"] == 1209600000
        assert "ts" in graph.edge_schema

    def test_missing_timestamp(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("0 1\n")
        with pytest.raises(SchemaError, match="src dst ts"):
            load_snap_temporal(path)


class TestCommunities:
    def test_memberships_attached(self, tmp_path):
        graph_path = tmp_path / "g.txt"
        graph_path.write_text("0 1\n1 2\n2 3\n")
        graph = load_snap_edge_list(graph_path)
        cmty_path = tmp_path / "c.txt"
        cmty_path.write_text("0 1\n2 3\n")
        count = load_communities(graph, cmty_path)
        assert count == 2
        assert graph.nodes[0].properties == {"c0": True, "c1": False}
        assert graph.nodes[3].properties == {"c0": False, "c1": True}
        assert "c0" in graph.node_schema and "c1" in graph.node_schema

    def test_perturbation_workload_over_loaded_data(self, tmp_path):
        from repro.datasets.community import perturbation_views

        graph_path = tmp_path / "g.txt"
        graph_path.write_text("\n".join(
            f"{i} {(i + 1) % 8}" for i in range(8)))
        graph = load_snap_edge_list(graph_path)
        cmty_path = tmp_path / "c.txt"
        cmty_path.write_text("0 1 2 3\n4 5\n6 7\n")
        load_communities(graph, cmty_path)
        views = perturbation_views(graph, top_n=3, k=1)
        assert len(views) == 3
