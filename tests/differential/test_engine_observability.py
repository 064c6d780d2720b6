"""Engine observability and arrangement-API surface tests.

Covers the satellites of the hot-path overhaul: the consolidation
invariant checker, per-operator trace record counts (the ``explain``
trace-memory report), the arranged self-join rule, and ``Arrangement``'s
``enter`` / ``semijoin`` helpers.
"""

import random

import pytest

from repro.differential import Dataflow
from repro.differential.collection import Collection
from repro.differential.debug import check_consolidated, operator_record_counts
from repro.errors import DataflowError


def _joined_dataflow():
    df = Dataflow()
    a = df.new_input("a")
    b = df.new_input("b")
    arr = b.arrange("b.arr")
    df.capture(a.join_arranged(arr, name="ja"), "out")
    df.step({"a": {("k", 1): 1}, "b": {("k", 2): 1, ("j", 3): 1}})
    return df


class TestCheckConsolidated:
    def test_clean_after_real_run(self):
        df = _joined_dataflow()
        assert check_consolidated(df) == []

    def test_detects_zero_multiplicity(self):
        df = _joined_dataflow()
        arrange_op = next(
            op for ops in df._ops_by_scope.values() for op in ops
            if op.name == "b.arr")
        arrange_op.trace.get("k").entries[(0,)][2] = 0
        problems = check_consolidated(df)
        assert len(problems) == 1
        assert "zero multiplicities" in problems[0]

    def test_detects_empty_diff_slot(self):
        df = _joined_dataflow()
        arrange_op = next(
            op for ops in df._ops_by_scope.values() for op in ops
            if op.name == "b.arr")
        arrange_op.trace.get("k").entries[(5,)] = {}
        problems = check_consolidated(df)
        assert any("empty diff" in p for p in problems)


class TestOperatorRecordCounts:
    def test_shared_arrangement_counted_once(self):
        """Two consumers of one arrangement: its records appear once, at
        the ArrangeOp, and each join reports only its private stream
        side."""
        df = Dataflow()
        a = df.new_input("a")
        b = df.new_input("b")
        c = df.new_input("c")
        arr = b.arrange("b.arr")
        df.capture(a.join_arranged(arr, name="join.a"), "oa")
        df.capture(c.join_arranged(arr, name="join.c"), "oc")
        df.step({"a": {("k", 1): 1},
                 "b": {("k", value): 1 for value in range(50)},
                 "c": {("k", 2): 1, ("j", 9): 1}})
        counts = operator_record_counts(df)
        assert counts["b.arr"] == 50
        assert counts["join.a"] == 1  # a's single record
        assert counts["join.c"] == 2  # c's two records


class TestSelfJoinRule:
    def test_arrangement_output_self_join_rejected(self):
        df = Dataflow()
        b = df.new_input("b")
        arr = b.arrange()
        with pytest.raises(DataflowError, match="self-join"):
            Collection(df, arr.op, arr.scope).join_arranged(arr)

    def test_source_against_own_arrangement_is_exact(self):
        """The sanctioned self-join (source vs. its arrangement) matches a
        private-trace self-join under churn."""
        rng = random.Random(7)
        df = Dataflow()
        b = df.new_input("b")
        arr = b.arrange()
        shared = df.capture(
            b.join_arranged(arr, lambda k, x, y: (k, (x, y))), "shared")
        plain = df.capture(b.join(b, lambda k, x, y: (k, (x, y))), "plain")
        state = set()
        for epoch in range(6):
            diff = {}
            for _ in range(rng.randrange(5)):
                rec = (rng.randrange(3), rng.randrange(3))
                if rec in state and rng.random() < 0.4:
                    state.discard(rec)
                    diff[rec] = -1
                elif rec not in state:
                    state.add(rec)
                    diff[rec] = 1
            df.step({"b": diff})
            assert shared.value_at_epoch(epoch) == \
                plain.value_at_epoch(epoch), epoch


class TestArrangementEnter:
    def test_enter_requires_descendant_scope(self):
        df = Dataflow()
        a = df.new_input("a")
        b = df.new_input("b")
        arr = None

        def body_build(inner, scope):
            nonlocal arr
            arr = inner.map(lambda rec: rec).arrange()
            return inner.map(lambda rec: rec)

        a.iterate(body_build)

        def body_other(inner, scope):
            with pytest.raises(DataflowError, match="descendant"):
                arr.enter(scope)
            return inner.map(lambda rec: rec)

        b.iterate(body_other)

    def test_enter_two_levels_deep(self):
        """A root arrangement entered through a nested loop still joins
        correctly (times padded by one zero per level)."""
        df = Dataflow()
        edges = df.new_input("edges")
        roots = df.new_input("roots")
        e_arr = edges.arrange("edges.arr")

        def outer(inner, oscope):
            def inner_body(ivar, iscope):
                e = e_arr.enter(iscope)
                r = iscope.enter(oscope.enter(roots))
                step = ivar.join_arranged(
                    e, lambda u, dist, v: (v, dist + 1))
                return step.concat(r).min_by_key()

            return inner.iterate(inner_body)

        out = df.capture(roots.iterate(outer), "dists")
        df.step({"edges": {(0, 1): 1, (1, 2): 1}, "roots": {(0, 0): 1}})
        assert out.value_at_epoch(0) == {(0, 0): 1, (1, 1): 1, (2, 2): 1}
        df.step({"edges": {(1, 2): -1}})
        assert out.value_at_epoch(1) == {(0, 0): 1, (1, 1): 1}


class TestArrangementSemijoin:
    def test_matches_collection_semijoin(self):
        rng = random.Random(11)
        df = Dataflow()
        data = df.new_input("data")
        keys = df.new_input("keys")
        arr = data.arrange()
        shared = df.capture(arr.semijoin(keys, name="sj.shared"), "shared")
        plain = df.capture(data.semijoin(keys, name="sj.plain"), "plain")
        data_state, key_state = set(), set()
        for epoch in range(6):
            data_diff = {}
            for _ in range(rng.randrange(5)):
                rec = (rng.randrange(4), rng.randrange(3))
                if rec in data_state and rng.random() < 0.4:
                    data_state.discard(rec)
                    data_diff[rec] = -1
                elif rec not in data_state:
                    data_state.add(rec)
                    data_diff[rec] = 1
            key_diff = {}
            for _ in range(rng.randrange(3)):
                k = rng.randrange(4)
                if k in key_state and rng.random() < 0.4:
                    key_state.discard(k)
                    key_diff[k] = -1
                elif k not in key_state:
                    key_state.add(k)
                    key_diff[k] = 1
            df.step({"data": data_diff, "keys": key_diff})
            assert shared.value_at_epoch(epoch) == \
                plain.value_at_epoch(epoch), epoch
