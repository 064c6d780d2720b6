"""GraphBolt-style specialized maintainers: correctness vs references."""

import random

import pytest

from repro.algorithms.pagerank import SCALE
from repro.algorithms.reference import reference_pagerank, reference_sssp
from repro.baselines import IncrementalPageRank, IncrementalSssp


def churn_sequence(seed, num_nodes=30, initial=90, steps=8, churn=6,
                   weighted=False):
    """Initial edge set plus per-step (additions, removals) lists."""
    rng = random.Random(seed)
    current = {}
    while len(current) < initial:
        u, v = rng.randrange(num_nodes), rng.randrange(num_nodes)
        if u != v and (u, v) not in current:
            current[(u, v)] = rng.randrange(1, 6) if weighted else 1
    history = [([], [])]
    snapshot = [dict(current)]
    for _ in range(steps):
        removals = []
        for pair in rng.sample(sorted(current), churn):
            removals.append((pair[0], pair[1], current.pop(pair)))
        additions = []
        while len(additions) < churn:
            u, v = rng.randrange(num_nodes), rng.randrange(num_nodes)
            if u != v and (u, v) not in current:
                w = rng.randrange(1, 6) if weighted else 1
                current[(u, v)] = w
                additions.append((u, v, w))
        history.append((additions, removals))
        snapshot.append(dict(current))
    return history, snapshot


class TestIncrementalSssp:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_reference_across_churn(self, seed):
        history, snapshots = churn_sequence(seed, weighted=True)
        initial = snapshots[0]
        source = min(src for src, _dst in initial)
        sssp = IncrementalSssp(source)
        sssp.apply_diff([(u, v, w) for (u, v), w in initial.items()], [])
        for step, (additions, removals) in enumerate(history):
            if step > 0:
                sssp.apply_diff(additions, removals)
            triples = [(u, v, w)
                       for (u, v), w in snapshots[step].items()]
            expected = reference_sssp(triples, source)
            assert sssp.dist == expected, (seed, step)

    def test_source_losing_out_edges_clears(self):
        sssp = IncrementalSssp(0)
        sssp.apply_diff([(0, 1, 2)], [])
        assert sssp.dist == {0: 0, 1: 2}
        sssp.apply_diff([], [(0, 1, 2)])
        assert sssp.dist == {}

    def test_deletion_invalidates_downstream(self):
        sssp = IncrementalSssp(0)
        sssp.apply_diff([(0, 1, 1), (1, 2, 1), (2, 3, 1), (0, 3, 10)], [])
        assert sssp.dist[3] == 3
        sssp.apply_diff([], [(1, 2, 1)])
        assert sssp.dist == {0: 0, 1: 1, 3: 10}


class TestIncrementalPageRank:
    @pytest.mark.parametrize("seed", range(4))
    def test_tracks_reference_fixed_point(self, seed):
        history, snapshots = churn_sequence(seed, churn=3)
        pr = IncrementalPageRank()
        initial = snapshots[0]
        pr.apply_diff([pair for pair in initial], [])
        for step, (additions, removals) in enumerate(history):
            if step > 0:
                pr.apply_diff([(u, v) for u, v, _w in additions],
                              [(u, v) for u, v, _w in removals])
            triples = [(u, v, 1) for (u, v) in snapshots[step]]
            expected = reference_pagerank(triples, iterations=60)
            assert set(pr.ranks) == set(expected), (seed, step)
            # Warm-start refinement and cold synchronous iteration may
            # settle on nearby quantization grid points (the quantized
            # update map's fixed point is not unique); they must agree to
            # within 1% of a unit rank everywhere.
            for vertex, rank in pr.ranks.items():
                assert abs(rank - expected[vertex]) <= SCALE // 100, \
                    (seed, step, vertex)

    def test_vertex_leaves_when_isolated(self):
        pr = IncrementalPageRank()
        pr.apply_diff([(0, 1), (1, 0)], [])
        assert set(pr.ranks) == {0, 1}
        pr.apply_diff([], [(0, 1), (1, 0)])
        assert pr.ranks == {}

    def test_work_counter_increases(self):
        pr = IncrementalPageRank()
        pr.apply_diff([(0, 1), (1, 2), (2, 0)], [])
        before = pr.work
        pr.apply_diff([(0, 2)], [])
        assert pr.work > before
