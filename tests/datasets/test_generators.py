"""Dataset generators: determinism, property shapes, workload helpers."""

import hashlib
import json

import pytest

from repro.datasets import (
    citations_like,
    community_graph,
    random_edge_pairs,
    social_like,
    stackoverflow_like,
)
from repro.datasets.citation import MAX_AUTHORS, YEAR_MAX, YEAR_MIN
from repro.datasets.community import (
    community_sizes,
    perturbation_views,
    removal_predicate,
)
from repro.datasets.social import locality_affinity_views
from repro.datasets.synthetic import zipf_sizes
from repro.datasets.temporal import EPOCH_START, ts_after
from repro.gvdl.predicate import compile_predicate


class TestRandomEdgePairs:
    def test_deterministic(self):
        assert random_edge_pairs(50, 200, seed=7) == \
            random_edge_pairs(50, 200, seed=7)

    def test_simple_graph(self):
        pairs = random_edge_pairs(40, 300, seed=1)
        assert len(pairs) == 300
        assert len(set(pairs)) == 300
        assert all(u != v for u, v in pairs)

    def test_heavy_tail(self):
        pairs = random_edge_pairs(200, 1000, seed=2)
        degree = {}
        for _u, v in pairs:
            degree[v] = degree.get(v, 0) + 1
        average = sum(degree.values()) / len(degree)
        assert max(degree.values()) > 4 * average

    def test_density_guard(self):
        with pytest.raises(ValueError, match="exceed"):
            random_edge_pairs(3, 100, seed=0)

    def test_zipf_sizes_sum(self):
        sizes = zipf_sizes(100, 7)
        assert sum(sizes) == 100
        assert sizes == sorted(sizes, reverse=True)
        assert all(s >= 1 for s in sizes)


class TestStackOverflowLike:
    def test_schema_and_span(self):
        graph = stackoverflow_like(num_nodes=100, num_edges=400, seed=0)
        assert "ts" in graph.edge_schema
        stamps = [e.properties["ts"] for e in graph.edges]
        assert min(stamps) >= EPOCH_START
        assert max(stamps) <= ts_after(years=8.0)
        # Time-ordered like the SNAP file.
        assert stamps == sorted(stamps)

    def test_activity_grows(self):
        graph = stackoverflow_like(num_nodes=150, num_edges=900, seed=1)
        midpoint = ts_after(years=4.0)
        early = sum(1 for e in graph.edges if e.properties["ts"] < midpoint)
        assert early < len(graph.edges) / 2


class TestCitationsLike:
    def test_near_dag_structure(self):
        graph = citations_like(num_nodes=120, num_edges=500, seed=0)
        for edge in graph.edges:
            src_year = graph.node_property(edge.src, "year")
            dst_year = graph.node_property(edge.dst, "year")
            assert dst_year <= src_year

    def test_property_ranges(self):
        graph = citations_like(num_nodes=100, num_edges=300, seed=1)
        for node in graph.nodes.values():
            assert YEAR_MIN <= node.properties["year"] <= YEAR_MAX
            assert 1 <= node.properties["authors"] <= MAX_AUTHORS


class TestCommunityGraph:
    def test_membership_properties(self):
        graph = community_graph(num_nodes=80, num_communities=5,
                                intra_edges=200, background_edges=50, seed=0)
        assert all(f"c{i}" in graph.node_schema for i in range(5))
        sizes = community_sizes(graph)
        assert len(sizes) == 5
        assert sizes[0][1] >= sizes[-1][1]

    def test_seeded_graph_is_pinned(self):
        # sha256 of the seed-11 graph's nodes, properties and edges: the
        # community sizes draw nothing from the generator's RNG stream.
        graph = community_graph(num_nodes=120, num_communities=6,
                                intra_edges=400, background_edges=100,
                                seed=11)
        payload = json.dumps([
            [[node_id, sorted(node.properties.items())]
             for node_id, node in sorted(graph.nodes.items())],
            [[edge.src, edge.dst, sorted(edge.properties.items())]
             for edge in graph.edges]], sort_keys=True)
        assert hashlib.sha256(payload.encode()).hexdigest() == (
            "da92df28623a39d517a7e14c4e46d7babc027199d8ee191cce7c9d37c4d4126a")

    def test_perturbation_views_combinatorics(self):
        graph = community_graph(num_nodes=60, num_communities=6,
                                intra_edges=150, background_edges=30, seed=1)
        views = perturbation_views(graph, top_n=4, k=2)
        assert len(views) == 6  # C(4, 2)
        names = [name for name, _p in views]
        assert len(set(names)) == 6

    def test_removal_predicate_semantics(self):
        predicate = removal_predicate([0, 2])
        evaluate = compile_predicate(predicate)
        keep = evaluate({}, {"c0": False, "c2": False},
                        {"c0": False, "c2": False})
        drop_src = evaluate({}, {"c0": True, "c2": False},
                            {"c0": False, "c2": False})
        drop_dst = evaluate({}, {"c0": False, "c2": False},
                            {"c0": False, "c2": True})
        assert keep and not drop_src and not drop_dst

    def test_empty_removal_keeps_everything(self):
        evaluate = compile_predicate(removal_predicate([]))
        assert evaluate({}, {}, {})


class TestSocialLike:
    def test_attribute_hierarchy(self):
        graph = social_like(num_nodes=60, num_edges=240, seed=0)
        for node in graph.nodes.values():
            city = int(node.properties["city"].removeprefix("city"))
            state = int(node.properties["state"].removeprefix("state"))
            country = int(node.properties["country"].removeprefix("country"))
            assert state == city // 3
            assert country == state // 2
        for edge in graph.edges:
            assert 1 <= edge.properties["affinity"] <= 3

    def test_locality_affinity_views(self):
        views = locality_affinity_views()
        assert len(views) == 9
        names = [name for name, _p in views]
        assert "city-low" in names and "country-high" in names
        # Check one predicate's semantics.
        predicate = dict(views)["state-medium"]
        evaluate = compile_predicate(predicate)
        assert evaluate({"affinity": 2}, {"state": "s1"}, {"state": "s1"})
        assert not evaluate({"affinity": 1}, {"state": "s1"}, {"state": "s1"})
        assert not evaluate({"affinity": 3}, {"state": "s1"}, {"state": "s2"})
