"""Join and reduce correctness, including randomized multi-epoch checks
against brute-force recomputation."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.differential import Dataflow
from repro.errors import DataflowError


def brute_force_join(a, b):
    """Plain multiset equi-join of {(k, v): m} dicts."""
    out = {}
    for (ka, va), ma in a.items():
        for (kb, vb), mb in b.items():
            if ka == kb:
                rec = (ka, (va, vb))
                out[rec] = out.get(rec, 0) + ma * mb
    return {r: m for r, m in out.items() if m}


class TestJoinBasics:
    def test_simple_join(self):
        df = Dataflow()
        a = df.new_input("a")
        b = df.new_input("b")
        out = df.capture(a.join(b), "out")
        df.step({"a": {("x", 1): 1}, "b": {("x", 2): 1, ("y", 3): 1}})
        assert out.value_at_epoch(0) == {("x", (1, 2)): 1}

    def test_multiplicities_multiply(self):
        df = Dataflow()
        a = df.new_input("a")
        b = df.new_input("b")
        out = df.capture(a.join(b), "out")
        df.step({"a": {("k", 1): 2}, "b": {("k", 2): 3}})
        assert out.value_at_epoch(0) == {("k", (1, 2)): 6}

    def test_retraction_joins_negatively(self):
        df = Dataflow()
        a = df.new_input("a")
        b = df.new_input("b")
        out = df.capture(a.join(b), "out")
        df.step({"a": {("k", 1): 1}, "b": {("k", 2): 1}})
        df.step({"a": {("k", 1): -1}})
        assert out.value_at_epoch(1) == {}

    def test_non_pair_record_raises(self):
        df = Dataflow()
        a = df.new_input("a")
        b = df.new_input("b")
        df.capture(a.join(b), "out")
        with pytest.raises(TypeError, match="key, value"):
            df.step({"a": {42: 1}, "b": {}})


class TestJoinRandomized:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000))
    def test_multi_epoch_join_matches_brute_force(self, seed):
        rng = random.Random(seed)
        df = Dataflow()
        a = df.new_input("a")
        b = df.new_input("b")
        out = df.capture(a.join(b), "out")
        state_a, state_b = {}, {}
        for epoch in range(4):
            diff_a, diff_b = {}, {}
            for _ in range(rng.randrange(6)):
                rec = (rng.randrange(3), rng.randrange(3))
                sign = 1 if rng.random() < 0.7 else -1
                if sign < 0 and state_a.get(rec, 0) + diff_a.get(rec, 0) <= 0:
                    continue
                diff_a[rec] = diff_a.get(rec, 0) + sign
            for _ in range(rng.randrange(6)):
                rec = (rng.randrange(3), rng.randrange(3))
                sign = 1 if rng.random() < 0.7 else -1
                if sign < 0 and state_b.get(rec, 0) + diff_b.get(rec, 0) <= 0:
                    continue
                diff_b[rec] = diff_b.get(rec, 0) + sign
            for rec, mult in diff_a.items():
                state_a[rec] = state_a.get(rec, 0) + mult
            for rec, mult in diff_b.items():
                state_b[rec] = state_b.get(rec, 0) + mult
            df.step({"a": diff_a, "b": diff_b})
            expected = brute_force_join(
                {r: m for r, m in state_a.items() if m},
                {r: m for r, m in state_b.items() if m})
            assert out.value_at_epoch(epoch) == expected


class TestReduceFamily:
    def test_min_by_key(self):
        df = Dataflow()
        a = df.new_input("a")
        out = df.capture(a.min_by_key(), "out")
        df.step({"a": {("k", 5): 1, ("k", 3): 1, ("j", 9): 1}})
        assert out.value_at_epoch(0) == {("k", 3): 1, ("j", 9): 1}

    def test_min_updates_on_retraction(self):
        df = Dataflow()
        a = df.new_input("a")
        out = df.capture(a.min_by_key(), "out")
        df.step({"a": {("k", 5): 1, ("k", 3): 1}})
        df.step({"a": {("k", 3): -1}})
        assert out.diff_at((1,)) == {("k", 3): -1, ("k", 5): 1}

    def test_max_by_key(self):
        df = Dataflow()
        a = df.new_input("a")
        out = df.capture(a.max_by_key(), "out")
        df.step({"a": {("k", 5): 1, ("k", 3): 1}})
        assert out.value_at_epoch(0) == {("k", 5): 1}

    def test_count_by_key_tracks_multiplicity(self):
        df = Dataflow()
        a = df.new_input("a")
        out = df.capture(a.count_by_key(), "out")
        df.step({"a": {("k", "x"): 2, ("k", "y"): 1}})
        df.step({"a": {("k", "x"): -1}})
        assert out.value_at_epoch(0) == {("k", 3): 1}
        assert out.value_at_epoch(1) == {("k", 2): 1}

    def test_sum_by_key_weighted(self):
        df = Dataflow()
        a = df.new_input("a")
        out = df.capture(a.sum_by_key(), "out")
        df.step({"a": {("k", 10): 2, ("k", 5): 1}})
        assert out.value_at_epoch(0) == {("k", 25): 1}

    def test_empty_group_emits_nothing(self):
        df = Dataflow()
        a = df.new_input("a")
        out = df.capture(a.min_by_key(), "out")
        df.step({"a": {("k", 1): 1}})
        df.step({"a": {("k", 1): -1}})
        assert out.value_at_epoch(1) == {}

    def test_negative_accumulation_raises(self):
        df = Dataflow()
        a = df.new_input("a")
        df.capture(a.min_by_key(), "out")
        with pytest.raises(DataflowError, match="negative multiplicity"):
            df.step({"a": {("k", 1): -1}})

    def test_custom_logic_multiple_outputs(self):
        df = Dataflow()
        a = df.new_input("a")
        out = df.capture(
            a.reduce(lambda key, vals: sorted(vals)[:2]), "out")
        df.step({"a": {("k", 3): 1, ("k", 1): 1, ("k", 2): 1}})
        assert out.value_at_epoch(0) == {("k", 1): 1, ("k", 2): 1}


class TestSemijoinAntijoin:
    def test_semijoin_keeps_present_keys(self):
        df = Dataflow()
        a = df.new_input("a")
        keys = df.new_input("keys")
        out = df.capture(a.semijoin(keys), "out")
        df.step({"a": {("k", 1): 1, ("j", 2): 1}, "keys": {"k": 1}})
        assert out.value_at_epoch(0) == {("k", 1): 1}

    def test_semijoin_ignores_key_multiplicity(self):
        df = Dataflow()
        a = df.new_input("a")
        keys = df.new_input("keys")
        out = df.capture(a.semijoin(keys), "out")
        df.step({"a": {("k", 1): 1}, "keys": {"k": 5}})
        assert out.value_at_epoch(0) == {("k", 1): 1}

    def test_antijoin_removes_present_keys(self):
        df = Dataflow()
        a = df.new_input("a")
        keys = df.new_input("keys")
        out = df.capture(a.antijoin(keys), "out")
        df.step({"a": {("k", 1): 1, ("j", 2): 1}, "keys": {"k": 1}})
        assert out.value_at_epoch(0) == {("j", 2): 1}

    def test_antijoin_updates_when_key_arrives(self):
        df = Dataflow()
        a = df.new_input("a")
        keys = df.new_input("keys")
        out = df.capture(a.antijoin(keys), "out")
        df.step({"a": {("k", 1): 1}})
        df.step({"keys": {"k": 1}})
        assert out.value_at_epoch(0) == {("k", 1): 1}
        assert out.value_at_epoch(1) == {}
