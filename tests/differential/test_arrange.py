"""Shared arrangements: correctness and sharing."""

import random

import pytest

from repro.differential import Dataflow
from repro.errors import DataflowError


class TestJoinArranged:
    def test_matches_plain_join(self):
        df = Dataflow()
        a = df.new_input("a")
        b = df.new_input("b")
        arranged = b.arrange("b.arr")
        shared = df.capture(a.join_arranged(arranged), "shared")
        plain = df.capture(a.join(b), "plain")
        df.step({"a": {("k", 1): 1, ("j", 5): 1},
                 "b": {("k", 2): 1, ("k", 3): 2}})
        df.step({"b": {("k", 2): -1, ("j", 7): 1}})
        df.step({"a": {("j", 5): -1}})
        for epoch in range(3):
            assert shared.value_at_epoch(epoch) == \
                plain.value_at_epoch(epoch), epoch

    @pytest.mark.parametrize("seed", range(3))
    def test_randomized_equivalence(self, seed):
        rng = random.Random(seed)
        df = Dataflow()
        a = df.new_input("a")
        b = df.new_input("b")
        arranged = b.arrange()
        shared = df.capture(a.join_arranged(arranged), "shared")
        plain = df.capture(a.join(b), "plain")
        state = {"a": {}, "b": {}}
        for epoch in range(5):
            feed = {}
            for side in ("a", "b"):
                diff = {}
                for _ in range(rng.randrange(5)):
                    rec = (rng.randrange(3), rng.randrange(4))
                    if rec in state[side] and rng.random() < 0.4:
                        del state[side][rec]
                        diff[rec] = -1
                    elif rec not in state[side]:
                        state[side][rec] = 1
                        diff[rec] = 1
                feed[side] = diff
            df.step(feed)
            assert shared.value_at_epoch(epoch) == \
                plain.value_at_epoch(epoch), (seed, epoch)

    def test_one_arrangement_feeds_many_joins(self):
        df = Dataflow()
        a = df.new_input("a")
        b = df.new_input("b")
        c = df.new_input("c")
        arranged = b.arrange()
        out_a = df.capture(a.join_arranged(arranged), "a_join")
        out_c = df.capture(c.join_arranged(arranged), "c_join")
        df.step({"a": {("k", 1): 1}, "b": {("k", 10): 1},
                 "c": {("k", 2): 1}})
        assert out_a.value_at_epoch(0) == {("k", (1, 10)): 1}
        assert out_c.value_at_epoch(0) == {("k", (2, 10)): 1}

    def test_arranged_side_stored_once(self):
        """Two joins over one arrangement share the index; two private
        joins store it twice."""
        df = Dataflow()
        a = df.new_input("a")
        b = df.new_input("b")
        c = df.new_input("c")
        arranged = b.arrange()
        a.join_arranged(arranged)
        c.join_arranged(arranged)
        two_private_1 = a.join(b)
        two_private_2 = c.join(b)
        df.step({"b": {("k", value): 1 for value in range(100)}})
        shared_entries = arranged.op.trace.record_count()
        private_entries = (two_private_1.op.traces[1].record_count()
                           + two_private_2.op.traces[1].record_count())
        assert shared_entries == 100
        assert private_entries == 200

    def test_scope_mismatch_rejected(self):
        df = Dataflow()
        a = df.new_input("a")
        b = df.new_input("b")
        arranged = b.arrange()

        def body(inner, scope):
            with pytest.raises(DataflowError, match="different scopes"):
                inner.join_arranged(arranged)
            return inner.map(lambda rec: rec)

        a.iterate(body)

    def test_non_pair_records_rejected(self):
        df = Dataflow()
        b = df.new_input("b")
        b.arrange()
        with pytest.raises(TypeError, match="key, value"):
            df.step({"b": {42: 1}})


class TestArrangedInLoop:
    def test_bfs_with_arranged_edges(self):
        """Arrangements compose with iterate: arrange the entered edges."""
        df = Dataflow()
        edges = df.new_input("edges")
        roots = df.new_input("roots")

        def body(inner, scope):
            e_arr = scope.enter(edges).arrange("edges.arr")
            r = scope.enter(roots)
            step = inner.join_arranged(
                e_arr, lambda u, dist, v: (v, dist + 1))
            return step.concat(r).min_by_key()

        out = df.capture(roots.iterate(body), "dists")
        df.step({"edges": {(0, 1): 1, (1, 2): 1}, "roots": {(0, 0): 1}})
        assert out.value_at_epoch(0) == {(0, 0): 1, (1, 1): 1, (2, 2): 1}
        df.step({"edges": {(2, 3): 1}})
        assert out.diff_at((1,)) == {(3, 3): 1}
        df.step({"edges": {(1, 2): -1}})
        assert out.value_at_epoch(2) == {(0, 0): 1, (1, 1): 1}
