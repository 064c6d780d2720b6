"""Planted-defect battery for the plan rules (GS-P1xx).

Each rule gets a minimal dataflow that triggers it and a near-miss that
must stay silent — the near-miss is the legitimate idiom the rule must
not punish.
"""

import pytest

from repro.analyze import analyze
from repro.differential import Dataflow
from repro.differential.collection import Collection
from repro.errors import DataflowError


def rules_of(report):
    return {finding.rule for finding in report.findings}


def findings_for(report, rule):
    return [f for f in report.findings if f.rule == rule]


class TestScopeCrossing:
    """GS-P101: edges between scopes without an enter."""

    def test_trigger_consumer_in_child_reads_root_directly(self):
        df = Dataflow()
        edges = df.new_input("edges")

        def body(inner, scope):
            # Plant: wrap the ROOT input op in the child scope and consume
            # it there — the edge root->child is not an enter.
            smuggled = Collection(df, edges.op, scope).map(
                lambda rec: rec, name="smuggled")
            return inner.concat(smuggled).min_by_key()

        df.capture(edges.iterate(body, name="loop"), "out")
        report = analyze(df)
        hits = findings_for(report, "GS-P101")
        assert hits, report.render()
        assert "smuggled" in hits[0].operator
        assert "across a scope boundary" in hits[0].message

    def test_near_miss_proper_enter_is_clean(self):
        df = Dataflow()
        edges = df.new_input("edges")

        def body(inner, scope):
            stepped = scope.enter(edges).map(lambda rec: rec, name="stepped")
            return inner.concat(stepped).min_by_key()

        df.capture(edges.iterate(body, name="loop"), "out")
        assert "GS-P101" not in rules_of(analyze(df))


class TestUnguardedNegate:
    """GS-P102: a negate feeding the loop variable without a reduce."""

    def test_trigger_negate_reaches_variable(self):
        df = Dataflow()
        edges = df.new_input("edges")

        def body(inner, scope):
            return inner.concat(
                inner.map(lambda rec: rec, name="flip").negate())

        df.capture(edges.iterate(body, name="bad.loop"), "out")
        hits = findings_for(analyze(df), "GS-P102")
        assert hits
        assert hits[0].severity.value == "error"
        assert "loop variable" in hits[0].message
        assert "reduce" in hits[0].hint

    def test_near_miss_reduce_guard_on_feedback(self):
        df = Dataflow()
        edges = df.new_input("edges")

        def body(inner, scope):
            return inner.concat(
                inner.map(lambda rec: rec, name="flip").negate()).distinct()

        df.capture(edges.iterate(body, name="loop"), "out")
        assert "GS-P102" not in rules_of(analyze(df))

    def test_near_miss_antijoin_idiom_cancels_exactly(self):
        # The SCC-style antijoin A.concat(A.semijoin(K).negate()) is safe
        # without a guard: every negative cancels a positive one-for-one.
        df = Dataflow()
        edges = df.new_input("edges")
        keys = df.new_input("keys")

        def body(inner, scope):
            return inner.antijoin(scope.enter(keys))

        df.capture(edges.iterate(body, name="loop"), "out")
        assert "GS-P102" not in rules_of(analyze(df))

    def test_near_miss_negate_outside_any_loop(self):
        df = Dataflow()
        a = df.new_input("a")
        b = df.new_input("b")
        df.capture(a.concat(b.negate()), "out")
        assert "GS-P102" not in rules_of(analyze(df))


class TestRedundantArrange:
    """GS-P103: the same upstream arranged twice."""

    def test_trigger_same_collection_arranged_twice(self):
        df = Dataflow()
        edges = df.new_input("edges")
        other = df.new_input("other")
        first = edges.arrange(name="idx1")
        second = edges.arrange(name="idx2")
        df.capture(other.join_arranged(first, lambda k, a, b: (k, a)), "o1")
        df.capture(other.join_arranged(second, lambda k, a, b: (k, b)), "o2")
        hits = findings_for(analyze(df), "GS-P103")
        assert hits
        assert "duplicates" in hits[0].message

    def test_trigger_arrange_of_arrange(self):
        df = Dataflow()
        edges = df.new_input("edges")
        arr = edges.arrange(name="idx")
        Collection(df, arr.op, arr.scope).arrange(name="idx.again")
        hits = findings_for(analyze(df), "GS-P103")
        assert any("re-indexes" in f.message for f in hits)

    def test_near_miss_one_arrangement_shared_by_two_joins(self):
        df = Dataflow()
        edges = df.new_input("edges")
        other = df.new_input("other")
        arr = edges.arrange(name="idx")
        df.capture(other.join_arranged(arr, lambda k, a, b: (k, a)), "o1")
        df.capture(other.join_arranged(arr, lambda k, a, b: (k, b)), "o2")
        assert "GS-P103" not in rules_of(analyze(df))

    def test_near_miss_distinct_upstreams(self):
        df = Dataflow()
        edges = df.new_input("edges")
        edges.arrange(name="idx1")
        edges.map(lambda rec: rec).arrange(name="idx2")
        assert "GS-P103" not in rules_of(analyze(df))


class TestDangling:
    """GS-P104: operators with no path to a capture/inspect sink."""

    def test_trigger_uncaptured_chain(self):
        df = Dataflow()
        edges = df.new_input("edges")
        df.capture(edges.map(lambda rec: rec, name="kept"), "out")
        edges.map(lambda rec: rec, name="dead")
        hits = findings_for(analyze(df), "GS-P104")
        assert len(hits) == 1
        assert "dead" in hits[0].operator

    def test_trigger_dangling_input_called_out(self):
        df = Dataflow()
        edges = df.new_input("edges")
        unused = df.new_input("unused")
        df.capture(edges.map(lambda rec: rec), "out")
        hits = findings_for(analyze(df), "GS-P104")
        assert len(hits) == 1
        assert "input unused" in hits[0].message

    def test_near_miss_inspect_counts_as_sink(self):
        df = Dataflow()
        edges = df.new_input("edges")
        df.capture(edges.map(lambda rec: rec, name="kept"), "out")
        edges.map(lambda rec: rec, name="tapped").inspect(print)
        assert "GS-P104" not in rules_of(analyze(df))

    def test_near_miss_loop_internals_reach_sink_via_leave(self):
        # Everything inside an iterate drains through the virtual
        # leave-tap edge; none of it is dangling.
        df = Dataflow()
        edges = df.new_input("edges")
        df.capture(edges.iterate(
            lambda inner, scope: inner.concat(
                scope.enter(edges)).min_by_key()), "out")
        assert "GS-P104" not in rules_of(analyze(df))


class TestScopeShape:
    """GS-P105: loop parts and sinks at the wrong depth."""

    def test_trigger_capture_inside_loop_scope(self):
        df = Dataflow()
        edges = df.new_input("edges")

        def body(inner, scope):
            inner.capture("bad.tap")
            return inner.concat(scope.enter(edges)).min_by_key()

        df.capture(edges.iterate(body, name="loop"), "out")
        hits = findings_for(analyze(df), "GS-P105")
        assert hits
        assert any("capture" in f.message for f in hits)

    def test_near_miss_capture_of_leave_stream(self):
        df = Dataflow()
        edges = df.new_input("edges")
        df.capture(edges.iterate(
            lambda inner, scope: inner.concat(
                scope.enter(edges)).min_by_key()), "out")
        assert "GS-P105" not in rules_of(analyze(df))


class TestJoinKeyProvenance:
    """GS-P106: equi-join of keys from two unrelated inputs."""

    def test_trigger_join_across_inputs(self):
        df = Dataflow()
        a = df.new_input("a")
        b = df.new_input("b")
        df.capture(a.join(b, lambda k, x, y: (k, (x, y))), "out")
        hits = findings_for(analyze(df), "GS-P106")
        assert hits
        assert "'a'" in hits[0].message and "'b'" in hits[0].message

    def test_near_miss_rekeyed_side_is_unknown_provenance(self):
        df = Dataflow()
        a = df.new_input("a")
        b = df.new_input("b")
        rekeyed = b.map(lambda rec: rec, name="rekey")
        df.capture(a.join(rekeyed, lambda k, x, y: (k, (x, y))), "out")
        assert "GS-P106" not in rules_of(analyze(df))

    def test_near_miss_self_join_through_filter(self):
        df = Dataflow()
        a = df.new_input("a")
        df.capture(a.join(a.filter(lambda rec: True),
                          lambda k, x, y: (k, (x, y))), "out")
        assert "GS-P106" not in rules_of(analyze(df))


class TestRearrangedJoin:
    """GS-P107: a plain join reading an arranged stream."""

    def test_trigger_join_of_arranged_stream(self):
        df = Dataflow()
        edges = df.new_input("edges")
        arr = edges.arrange(name="idx")
        df.capture(edges.join(Collection(df, arr.op, arr.scope),
                              lambda k, x, y: (k, x)), "out")
        hits = findings_for(analyze(df), "GS-P107")
        assert hits
        assert "join_arranged" in hits[0].hint

    def test_near_miss_join_arranged_reuses_index(self):
        df = Dataflow()
        edges = df.new_input("edges")
        arr = edges.arrange(name="idx")
        df.capture(edges.join_arranged(arr, lambda k, x, y: (k, x)), "out")
        assert "GS-P107" not in rules_of(analyze(df))


class TestCrossScopeErrorMessage:
    """Regression: _check_same_scope names both operators and depths."""

    def test_message_names_operators_and_depths(self):
        df = Dataflow()
        a = df.new_input("a")
        b = df.new_input("b")

        def body(inner, scope):
            with pytest.raises(DataflowError) as excinfo:
                inner.concat(b)
            message = str(excinfo.value)
            assert "b" in message
            assert "scope depth 2" in message
            assert "scope depth 1" in message
            assert "enter()" in message
            return inner.concat(scope.enter(b)).min_by_key()

        df.capture(a.iterate(body), "out")
