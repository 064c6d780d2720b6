"""``CaptureOp.accumulated``: a frontier read returns the running sum, and
every read — fast or not — equals a scan of the capture trace."""

import random

import pytest

from repro.algorithms import Wcc
from repro.core.resident import ResidentDataflow
from repro.core.resilience import FaultPlan
from repro.differential import Dataflow
from repro.differential import trace as trace_module
from repro.differential.multiset import add_into
from repro.differential.operators import CaptureOp
from repro.differential.timestamp import leq
from repro.errors import InjectedFault


def scan(capture, time):
    """The reference: sum of the stored diffs at times ``<= time``."""
    acc = {}
    for s, diff in capture.trace.entries.items():
        if leq(s, time):
            add_into(acc, diff)
    return acc


def churn(seed, epochs, keys=12):
    """Per-epoch edge diffs with retractions of earlier additions."""
    rng = random.Random(seed)
    live = []
    for _epoch in range(epochs):
        diff = {}
        for _ in range(rng.randrange(1, 6)):
            edge = (rng.randrange(keys), rng.randrange(keys))
            live.append(edge)
            diff[edge] = diff.get(edge, 0) + 1
        for _ in range(rng.randrange(0, 4)):
            if live:
                edge = live.pop(rng.randrange(len(live)))
                diff[edge] = diff.get(edge, 0) - 1
        yield {edge: mult for edge, mult in diff.items() if mult}


def count_dataflow():
    df = Dataflow()
    out = df.capture(df.new_input("edges").count_by_key(), "out")
    return df, out


def assert_reads_equal_scan(out, upto):
    for epoch in range(upto + 2):
        assert out.value_at_epoch(epoch) == scan(out, (epoch,)), epoch


class TestFrontierReadEqualsScan:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_at_every_epoch_of_a_run_with_retractions(self, seed):
        df, out = count_dataflow()
        retracted = False
        for diff in churn(seed, 30):
            epoch = df.step({"edges": diff})
            retracted |= any(m < 0 for m in out.diff_at((epoch,)).values())
            assert_reads_equal_scan(out, epoch)
        assert retracted

    def test_after_compaction_and_a_reopening_write(self):
        df, out = count_dataflow()
        for diff in churn(4, 20):
            df.step({"edges": diff})
        before = out.value_at_epoch(df.epoch)
        df.compact(15)
        assert len(out.trace.entries) <= 6
        assert out.value_at_epoch(df.epoch) == before
        assert_reads_equal_scan(out, df.epoch)
        # An out-of-frontier write (replay) reopens the compacted range.
        out.on_delta(0, (3,), {("late", 1): 1})
        assert out.value_at_epoch(df.epoch) == \
            add_into(dict(before), {("late", 1): 1})
        assert out.value_at_epoch(2) == scan(out, (2,))
        assert ("late", 1) not in out.value_at_epoch(2)
        assert_reads_equal_scan(out, df.epoch)
        df.step({"edges": {(0, 0): 1}})
        df.compact(df.epoch)
        assert_reads_equal_scan(out, df.epoch)

    def test_after_a_dropped_and_rebuilt_resident(self):
        def edge(u, v):
            return {(u, (v, 1)): 1, (v, (u, 1)): 1}

        resident = ResidentDataflow(
            Wcc(), fault_plan=FaultPlan.single("epoch", 2))
        resident.advance_by(edge(1, 2))
        resident.advance_by(edge(3, 4))
        with pytest.raises(InjectedFault):
            resident.advance_by(edge(2, 3))
        assert not resident.built
        assert resident.output() == {(n, 1): 1 for n in (1, 2, 3, 4)}
        assert resident.rebuilds == 2
        capture = resident.capture
        assert capture.value_at_epoch(0) == scan(capture, (0,))
        resident.advance_by({(3, (4, 1)): -1, (4, (3, 1)): -1})
        assert resident.output() == scan(capture, (resident.dataflow.epoch,))
        assert resident.output() == {(1, 1): 1, (2, 1): 1, (3, 1): 1}

    def test_nested_scope_capture_scans(self):
        df = Dataflow()
        seeds = df.new_input("seeds")
        inner_captures = []

        def body(inner, scope):
            step = inner.map(lambda rec: (rec[0], min(rec[1] + 1, 3)))
            result = step.concat(scope.enter(seeds)).min_by_key()
            inner_captures.append(result.capture("inner"))
            return result

        seeds.iterate(body)
        df.step({"seeds": {(0, 0): 1, (1, 5): 1}})
        df.step({"seeds": {(1, 5): -1, (1, 1): 1}})
        (inner,) = inner_captures
        times = list(inner.trace.entries)
        assert times and all(len(time) == 2 for time in times)
        for time in times + [(5, 5), (0, 0)]:
            assert inner.accumulated(time) == scan(inner, time)

    def test_returned_value_is_not_aliased(self):
        df, out = count_dataflow()
        df.step({"edges": {(1, 2): 1, (1, 3): 1}})
        first = out.value_at_epoch(0)
        first.clear()
        first[("junk", 0)] = 7
        assert out.value_at_epoch(0) == {(1, 2): 1}
        assert out.accumulated((4,)) == {(1, 2): 1}


class TestFrontierReadCost:
    def test_sequential_reads_are_linear_in_the_diffs(self, monkeypatch):
        """k epochs, each followed by a frontier read: the capture touches
        each arriving diff entry a bounded number of times, where a scan
        per read re-adds every earlier epoch's diff (Θ(k · Σ|diff|))."""
        touched = [0]
        inside = [False]

        def counting_add_into(target, source, factor=1):
            if inside[0]:
                touched[0] += len(source)
            return add_into(target, source, factor)

        def counted(method):
            # Count only the folds the capture's own trace makes, not the
            # count operator's trace upstream of it.
            def within_capture(capture, *args):
                inside[0] = True
                try:
                    return method(capture, *args)
                finally:
                    inside[0] = False
            return within_capture

        monkeypatch.setattr(trace_module, "add_into", counting_add_into)
        for name in ("on_delta", "accumulated"):
            monkeypatch.setattr(CaptureOp, name,
                                counted(getattr(CaptureOp, name)))
        df, out = count_dataflow()
        arrived = scanned = 0
        for diff in churn(9, 60, keys=40):
            epoch = df.step({"edges": diff})
            arrived += len(out.diff_at((epoch,)))
            scanned += sum(len(diff) for diff in out.trace.entries.values())
            assert len(out.value_at_epoch(epoch)) > 0
        assert arrived > 200 and scanned > 10 * arrived
        assert touched[0] <= 2 * arrived
        # A read behind the frontier still scans.
        touched[0] = 0
        assert out.value_at_epoch(5) == scan(out, (5,))
        assert touched[0] > 0
