"""The keyed-operator shell (`repro.differential.operators.keyed`).

The shell is the one place that decides where a key's state lives, how
its kernel is invoked and how its work is metered. These tests hold it to
that through the seam it exists to provide: a cluster is anything with
``post_updates`` / ``run_tasks`` / ``stats``, so an in-process fake can
stand in for forked workers.
"""

import copy
from collections import defaultdict

import pytest

from repro.differential import Dataflow
from repro.differential.debug import operator_record_counts
from repro.differential.operators.keyed import KeyedOperator, pair_key
from repro.differential.trace import Trace
from repro.timely.meter import WorkMeter
from repro.timely.worker import shard_for

WORKERS = 2


class LoggingMeter(WorkMeter):
    """A real meter that also keeps the ordered ``(key, units)`` calls."""

    def __init__(self, workers):
        super().__init__(workers)
        self.calls = []

    def record(self, key, units=1, worker=None):
        self.calls.append((key, units))
        super().record(key, units, worker)


class FakeCluster:
    """Workers as deep copies of the dataflow graph, in this process.

    Each "worker" owns the keys ``shard_for`` gives it and serves the
    coordinator through the operators' ``remote_*`` entry points, like a
    forked worker does — minus the pipes.
    """

    def __init__(self, dataflow, workers=WORKERS):
        self.workers = workers
        self.registries = []
        for _worker in range(workers):
            twin = copy.deepcopy(dataflow)
            self.registries.append({
                op.index: op
                for ops in twin._ops_by_scope.values() for op in ops
                if isinstance(op, KeyedOperator)})
        self.touched = defaultdict(set)  # message kind -> operator roles

    def _role(self, op_index):
        return self.registries[0][op_index].role

    def post_updates(self, op_index, tag, time, grouped):
        self.touched["update"].add(self._role(op_index))
        batches = defaultdict(dict)
        for key, values in grouped.items():
            batches[shard_for(key, self.workers)][key] = values
        for worker, sub in batches.items():
            self.registries[worker][op_index].remote_update((tag, time, sub))

    def run_tasks(self, op_index, header, items):
        self.touched["task"].add(self._role(op_index))
        batches = defaultdict(list)
        for key, payload in items:
            batches[shard_for(key, self.workers)].append((key, payload))
        merged = {}
        for worker in sorted(batches):
            merged.update(self.registries[worker][op_index].remote_task(
                (header, batches[worker])))
        return merged

    def stats(self):
        totals = defaultdict(lambda: (0, 0))
        for registry in self.registries:
            for index, op in registry.items():
                keys, records = op.remote_stats()
                totals[index] = (totals[index][0] + keys,
                                 totals[index][1] + records)
        return dict(totals)

    def close(self):
        pass


def all_five_operators(faked):
    """Join, reduce, arrange + arranged join and an iterate scope — with
    retractions — on the inline path or behind the fake cluster."""
    df = Dataflow(meter=LoggingMeter(WORKERS))
    edges = df.new_input("edges")
    labels = df.new_input("labels")
    captures = [
        df.capture(labels.join(edges, name="pairs"), "pairs"),
        df.capture(edges.reduce(lambda key, acc: [sum(acc.values())],
                                name="degree"), "degree"),
        df.capture(labels.join_arranged(edges.arrange("edges.arr"),
                                        name="probe"), "probe"),
    ]

    def body(inner, scope):
        return inner.join(scope.enter(edges), lambda u, lbl, v: (v, lbl)) \
            .concat(scope.enter(labels)).min_by_key()

    captures.append(df.capture(labels.iterate(body, name="cc"), "cc"))
    if faked:
        df.cluster = FakeCluster(df)
    n = 12
    df.step({"edges": {(u, u + 1): 1 for u in range(n - 1)},
             "labels": {(v, v): 1 for v in range(n)}})
    df.step({"edges": {(n // 2, n // 2 + 1): -1}})
    df.step({"edges": {(n // 2, n // 2 + 1): 1, (0, n - 1): 1}})
    counts = operator_record_counts(df)
    df.compact(2)
    return df, captures, counts


class TestFakeClusterEqualsInline:
    def test_outputs_and_meter_call_sequence(self):
        inline, inline_caps, inline_counts = all_five_operators(faked=False)
        faked, faked_caps, faked_counts = all_five_operators(faked=True)
        assert [cap.trace.entries for cap in faked_caps] == \
            [cap.trace.entries for cap in inline_caps]
        # Not just equal totals: the same (key, units) calls in the same
        # order, which is what keeps fault plans and tracers aligned.
        assert faked.meter.calls == inline.meter.calls
        assert len(inline.meter.calls) > 100
        assert faked.meter.snapshot() == inline.meter.snapshot()
        assert faked_counts == inline_counts
        assert operator_record_counts(faked) == operator_record_counts(inline)

    def test_every_operator_went_through_the_cluster(self):
        faked, _caps, _counts = all_five_operators(faked=True)
        assert faked.cluster.touched["update"] == \
            {"arrange", "reduce", "variable"}
        assert faked.cluster.touched["task"] == \
            {"join", "join_arranged", "reduce", "variable"}
        # Key state is on the "workers"; the coordinator's copy is empty.
        for ops in faked._ops_by_scope.values():
            for op in ops:
                if isinstance(op, KeyedOperator):
                    assert op.record_count() == 0

    def test_failing_kernel_surfaces_with_no_half_replayed_events(self):
        def explode_on_seven(key, acc):
            if key == 7:
                raise ValueError("kernel exploded")
            return [len(acc)]

        df = Dataflow(meter=LoggingMeter(WORKERS))
        source = df.new_input("in")
        df.capture(source.reduce(explode_on_seven, name="r"), "out")
        df.cluster = FakeCluster(df)
        with pytest.raises(ValueError, match="kernel exploded"):
            df.step({"in": {(k, k): 1 for k in range(20)}})
        # The whole batch failed before any reply was replayed: keys that
        # ran fine beside key 7 must not have been metered. Only the
        # input operator's per-record calls are on the meter.
        assert df.meter.calls == [((k, k), 1) for k in range(20)]


def record_into(events):
    return lambda key, units: events.append((key, units))


def cost_via(key, dist, edge):
    """Bellman-Ford's join: a distance at ``key`` crosses ``key -> dst``."""
    dst, cost = edge
    return (dst, dist + cost)


class TestPairKeyOnTable1:
    """The pairing function on the paper's Table 1 trace (times are
    ``(view, iteration)``; G1 lowers w1's distance from 2 to 1)."""

    W1_DISTS = {(0, 1): {2: 1}, (1, 1): {2: -1, 1: 1}}
    W1_EDGES = {("w2", 2): 1}

    def test_left_port_distance_diff_against_stored_edges(self):
        edges = Trace("edges")
        edges.update("w1", (0, 0), self.W1_EDGES)
        outputs, events = defaultdict(dict), []
        pair_key(cost_via, "w1", self.W1_DISTS[(1, 1)], (1, 1), edges,
                 False, record_into(events), outputs)
        assert outputs == {(1, 1): {("w2", 4): -1, ("w2", 3): 1}}
        # len(values), then stored values scanned x len(values).
        assert events == [("w1", 2), ("w1", 2)]

    def test_right_port_edge_diff_against_stored_distances(self):
        dists = Trace("dists")
        for time, diff in self.W1_DISTS.items():
            dists.update("w1", time, diff)
        outputs, events = defaultdict(dict), []
        # A cost change of w1 -> w2 in view 2 must correct the messages of
        # both earlier views' iteration 1 at (2, 1): a time at which
        # neither input carries a difference.
        pair_key(cost_via, "w1", {("w2", 2): -1, ("w2", 1): 1}, (2, 0),
                 dists, True, record_into(events), outputs)
        assert outputs == {(2, 1): {("w2", 4): 0, ("w2", 3): -1,
                                    ("w2", 2): 1}}
        assert events == [("w1", 2), ("w1", 6)]

    def test_arrangement_entered_from_an_outer_scope(self):
        arranged = Trace("edges.arr")  # root-scope times: one coordinate
        arranged.update("w1", (0,), self.W1_EDGES)
        arranged.update("w1", (2,), {("w2", 2): -1, ("w2", 1): 1})
        outputs = defaultdict(dict)
        pair_key(cost_via, "w1", {1: 1}, (1, 1), arranged, False,
                 record_into([]), outputs)
        # (0,) acts as (0, 0); (2,) as (2, 0), whose lub with (1, 1) is
        # (2, 1).
        assert outputs == {(1, 1): {("w2", 3): 1},
                           (2, 1): {("w2", 3): -1, ("w2", 2): 1}}

    def test_key_without_history_is_metered_but_pairs_nothing(self):
        outputs, events = defaultdict(dict), []
        pair_key(cost_via, "w9", {1: 1}, (0, 0), Trace("empty"), False,
                 record_into(events), outputs)
        assert outputs == {} and events == [("w9", 1)]


class TestCorrectOutput:
    @staticmethod
    def reduce_op():
        df = Dataflow()
        source = df.new_input("in")
        return source.reduce(lambda key, acc: [], name="r").op

    def test_reflush_at_the_same_time_replaces_the_stored_diff(self):
        op = self.reduce_op()
        out, events = {}, []
        op.correct_output("k", (0,), {5: 1}, record_into(events), out)
        assert out == {("k", 5): 1}
        assert op.out_trace.get("k").entries == {(0,): {5: 1}}

        out = {}
        op.correct_output("k", (0,), {7: 1}, record_into(events), out)
        # Replaced, not added to: the trace holds only the new value and
        # downstream sees the change between the two flushes.
        assert op.out_trace.get("k").entries == {(0,): {7: 1}}
        assert out == {("k", 5): -1, ("k", 7): 1}
        assert events == [("k", 1), ("k", 2)]

    def test_unchanged_target_emits_and_meters_nothing(self):
        op = self.reduce_op()
        op.correct_output("k", (0,), {7: 1}, record_into([]), {})
        out, events = {}, []
        op.correct_output("k", (0,), {7: 1}, record_into(events), out)
        op.correct_output("k", (1,), {7: 1}, record_into(events), out)
        assert out == {} and events == []
        assert op.out_trace.get("k").entries == {(0,): {7: 1}}

    def test_later_time_stores_only_the_difference(self):
        op = self.reduce_op()
        op.correct_output("k", (0,), {7: 1}, record_into([]), {})
        out = {}
        op.correct_output("k", (1,), {9: 1}, record_into([]), out)
        assert out == {("k", 7): -1, ("k", 9): 1}
        assert op.out_trace.get("k").entries == {
            (0,): {7: 1}, (1,): {7: -1, 9: 1}}


def feed_bad_record(role, record):
    df = Dataflow()
    a = df.new_input("a")
    b = df.new_input("b")
    if role == "join":
        a.join(b, name="op")
    elif role == "reduce":
        a.reduce(lambda key, acc: [len(acc)], name="op")
    elif role == "arrange":
        a.arrange("op")
    elif role == "join_arranged":
        a.join_arranged(b.arrange("b.arr"), name="op")
    else:
        a.iterate(lambda inner, scope: inner, name="op")
    df.step({"a": {record: 1}})


@pytest.mark.parametrize("record", [7, (1, 2, 3)])
@pytest.mark.parametrize("role, name", [
    ("join", "op"), ("reduce", "op"), ("arrange", "op"),
    ("join_arranged", "op"), ("variable", "op.var")])
def test_non_pair_record_error_names_role_operator_and_record(
        role, name, record):
    with pytest.raises(TypeError) as excinfo:
        feed_bad_record(role, record)
    assert str(excinfo.value) == (
        f"{role} operator {name} takes (key, value) records; "
        f"got {record!r}")
