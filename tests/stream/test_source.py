"""Edge-stream sources: batches, generators, and window wrappers."""

import pytest

from repro.errors import ConfigError
from repro.graph.property_graph import PropertyGraph
from repro.stream import (
    StreamBatch,
    batches_from_collection,
    churn_batches,
    replay_batches,
    sliding_batches,
)
from repro.verify.generator import generate_case
from repro.verify.oracles import view_edge_list


def accumulate(batches):
    """Live multiset after absorbing every batch, {-ve means invalid}."""
    edges = {}
    for batch in batches:
        for triple in batch.appends:
            edges[triple] = edges.get(triple, 0) + 1
        for triple in batch.retracts:
            edges[triple] = edges.get(triple, 0) - 1
    return {t: m for t, m in edges.items() if m}


class TestStreamBatch:
    def test_normalizes_lists_to_tuples(self):
        batch = StreamBatch(appends=[[1, 2, 1]], retracts=[[3, 4, 2]])
        assert batch.appends == ((1, 2, 1),)
        assert batch.retracts == ((3, 4, 2),)
        assert batch.size == 2

    def test_record_roundtrip(self):
        batch = StreamBatch(appends=((1, 2, 1), (2, 3, 5)),
                            retracts=((4, 5, 1),))
        assert StreamBatch.from_record(batch.to_record()) == batch

    def test_empty(self):
        assert StreamBatch().size == 0


class TestChurnBatches:
    def test_deterministic_per_seed(self):
        assert churn_batches(5, 30) == churn_batches(5, 30)
        assert churn_batches(5, 30) != churn_batches(6, 30)

    def test_retractions_stay_within_live_set(self):
        live = {}
        for batch in churn_batches(9, 50, base_edges=10):
            for triple in batch.retracts:
                assert live.get(triple, 0) > 0, \
                    f"retracted {triple} not in live set"
                live[triple] -= 1
            for triple in batch.appends:
                live[triple] = live.get(triple, 0) + 1

    def test_base_edges_seed_an_initial_append_only_batch(self):
        batches = churn_batches(1, 10, base_edges=8)
        assert len(batches) == 10
        assert batches[0].retracts == ()
        assert batches[0].appends

    def test_validation(self):
        with pytest.raises(ConfigError, match="epochs"):
            churn_batches(0, 0)
        with pytest.raises(ConfigError, match="num_nodes"):
            churn_batches(0, 5, num_nodes=1)


class TestReplayBatches:
    def _graph(self):
        graph = PropertyGraph()
        for node in range(1, 7):
            graph.add_node(node)
        for index, (src, dst) in enumerate(
                [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6)]):
            graph.add_edge(src, dst, {"ts": 10 - index})
        return graph

    def test_orders_by_timestamp_and_chunks(self):
        batches = replay_batches(self._graph(), num_batches=3)
        assert len(batches) == 3
        assert all(not batch.retracts for batch in batches)
        # ts 6..10 ascending: the last-added edges replay first.
        flat = [triple for batch in batches for triple in batch.appends]
        assert flat == [(5, 6, 1), (4, 5, 1), (3, 4, 1), (2, 3, 1),
                        (1, 2, 1)]

    def test_pads_with_empty_batches(self):
        batches = replay_batches(self._graph(), num_batches=8)
        assert len(batches) == 8
        assert sum(batch.size for batch in batches) == 5

    def test_missing_property_is_config_error(self):
        graph = PropertyGraph()
        graph.add_node(1)
        graph.add_node(2)
        graph.add_edge(1, 2)
        with pytest.raises(ConfigError, match="'ts'"):
            replay_batches(graph)


class TestWindows:
    def test_sliding_retracts_expired_batch(self):
        base = [StreamBatch(appends=((i, i + 1, 1),)) for i in range(5)]
        slid = sliding_batches(base, width=2)
        assert slid[0].retracts == ()
        assert slid[1].retracts == ()
        assert slid[2].retracts == ((0, 1, 1),)
        assert slid[4].retracts == ((2, 3, 1),)
        # The live window always holds exactly the last two batches.
        assert accumulate(slid) == {(3, 4, 1): 1, (4, 5, 1): 1}

    def test_sliding_requires_append_only_base(self):
        base = [StreamBatch(appends=((1, 2, 1),)),
                StreamBatch(retracts=((1, 2, 1),))]
        with pytest.raises(ConfigError, match="append-only"):
            sliding_batches(base, width=1)
        with pytest.raises(ConfigError, match="width"):
            sliding_batches([], width=0)


class TestBatchesFromCollection:
    def test_batches_accumulate_to_each_view(self):
        case = generate_case(123, kinds=("churn",))
        collection = case.collection
        batches = batches_from_collection(collection)
        assert len(batches) == collection.num_views
        live = {}
        for index, batch in enumerate(batches):
            for triple in batch.appends:
                live[triple] = live.get(triple, 0) + 1
            for triple in batch.retracts:
                live[triple] = live.get(triple, 0) - 1
            view = {}
            for triple in view_edge_list(collection, index):
                view[triple] = view.get(triple, 0) + 1
            assert {t: m for t, m in live.items() if m} == view
