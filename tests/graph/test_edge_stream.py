"""Edge streams and diff-to-input conversion."""

from repro.graph.edge_stream import (
    EdgeStream,
    edge_diff_to_input,
    edges_to_input,
)


class TestEdgeStream:
    def test_from_graph_default_weight(self, call_graph):
        stream = EdgeStream.from_graph(call_graph)
        assert len(stream) == 15
        assert all(w == 1 for _e, _s, _d, w in stream)

    def test_from_graph_property_weight(self, call_graph):
        stream = EdgeStream.from_graph(call_graph, weight="duration")
        weights = {w for _e, _s, _d, w in stream}
        assert 34 in weights and 1 in weights

    def test_as_input_diff_directed(self):
        stream = EdgeStream([(0, 1, 2, 5)])
        assert stream.as_input_diff() == {(1, (2, 5)): 1}

    def test_as_input_diff_undirected(self):
        stream = EdgeStream([(0, 1, 2, 5)])
        assert stream.as_input_diff(directed=False) == {
            (1, (2, 5)): 1, (2, (1, 5)): 1}

    def test_parallel_edges_accumulate(self):
        stream = EdgeStream([(0, 1, 2, 5), (1, 1, 2, 5)])
        assert stream.as_input_diff() == {(1, (2, 5)): 2}


class TestEdgeDiffToInput:
    def test_signs_preserved(self):
        diff = {(0, 1, 2, 5): 1, (1, 3, 4, 2): -1}
        assert edge_diff_to_input(diff) == {
            (1, (2, 5)): 1, (3, (4, 2)): -1}

    def test_undirected_expansion(self):
        diff = {(0, 1, 2, 5): -1}
        assert edge_diff_to_input(diff, directed=False) == {
            (1, (2, 5)): -1, (2, (1, 5)): -1}

    def test_cancellation_dropped(self):
        diff = {(0, 1, 2, 5): 1, (1, 1, 2, 5): -1}
        assert edge_diff_to_input(diff) == {}


class TestOneConversion:
    def test_every_edge_shape_renders_identically(self):
        from repro.stream.engine import ContinuousQuery

        edges = [(0, 1, 2, 5), (1, 2, 1, 5), (2, 3, 3, 1)]
        query = ContinuousQuery("wcc", {}, workers=1, backend="inline")
        for directed in (True, False):
            query.computation.directed = directed
            want = edges_to_input(((edge, 1) for edge in edges), directed)
            assert EdgeStream(edges).as_input_diff(directed) == want
            assert edge_diff_to_input(
                {edge: 1 for edge in edges}, directed) == want
            assert query.input_for(
                {edge[1:]: 1 for edge in edges}) == want

    def test_mirrored_retraction_cancels(self):
        # Undirected: +(1,2) and -(2,1) are the same two records.
        assert edges_to_input(
            [((0, 1, 2, 5), 1), ((1, 2, 1, 5), -1)], directed=False) == {}
