"""Tests for difference traces, accumulation, compaction, and scheduling."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.differential.timestamp import leq, lub, lub_closure
from repro.differential.trace import (
    KEY_FOLD_THRESHOLD,
    KeyTrace,
    TimeSchedule,
    Trace,
)

times2 = st.tuples(st.integers(0, 4), st.integers(0, 4))
entries = st.lists(
    st.tuples(times2, st.integers(0, 3), st.integers(-3, 3).filter(bool)),
    max_size=14)


class TestKeyTrace:
    def test_accumulate_respects_partial_order(self):
        trace = KeyTrace()
        trace.update((0, 0), {"a": 1})
        trace.update((0, 2), {"b": 1})
        trace.update((1, 1), {"c": 1})
        # (1, 1) sees (0,0) and itself, but not (0,2).
        assert trace.accumulate((1, 1)) == {"a": 1, "c": 1}

    def test_update_cancellation_removes_slot(self):
        trace = KeyTrace()
        trace.update((0,), {"a": 1})
        trace.update((0,), {"a": -1})
        assert trace.is_empty()

    @given(entries)
    def test_accumulation_identity(self, updates):
        """S_t == Σ_{s<=t} δS_s for every queried t (the core invariant)."""
        trace = KeyTrace()
        for time, record, mult in updates:
            trace.update(time, {record: mult})
        for probe in [(0, 0), (2, 2), (4, 4), (4, 0), (0, 4)]:
            expected = {}
            for time, record, mult in updates:
                if leq(time, probe):
                    expected[record] = expected.get(record, 0) + mult
            expected = {r: m for r, m in expected.items() if m}
            assert trace.accumulate(probe) == expected


class TestCompaction:
    @given(entries, st.integers(1, 5))
    def test_compaction_preserves_future_accumulations(self, updates, epoch):
        trace = KeyTrace()
        compacted = KeyTrace()
        for time, record, mult in updates:
            trace.update(time, {record: mult})
            compacted.update(time, {record: mult})
        compacted.compact_below(epoch)
        # Any probe at or after `epoch` must accumulate identically.
        for probe in [(epoch, 0), (epoch, 4), (epoch + 1, 2), (5, 5)]:
            assert compacted.accumulate(probe) == trace.accumulate(probe)

    def test_compaction_merges_per_suffix(self):
        trace = KeyTrace()
        trace.update((0, 3), {"a": 1})
        trace.update((1, 3), {"a": 2})
        trace.update((2, 3), {"a": -1})
        trace.compact_below(3)
        assert trace.entries == {(0, 3): {"a": 2}}

    def test_compaction_keeps_current_epoch_separate(self):
        trace = KeyTrace()
        trace.update((0, 1), {"a": 1})
        trace.update((2, 1), {"b": 1})
        trace.compact_below(2)
        assert (2, 1) in trace.entries
        assert trace.entries[(0, 1)] == {"a": 1}


class TestTrace:
    def test_unknown_key_accumulates_empty(self):
        trace = Trace()
        assert trace.accumulate("nope", (0,)) == {}

    def test_record_count(self):
        trace = Trace()
        trace.update("k", (0,), {"a": 1, "b": 1})
        trace.update("k", (1,), {"a": -1})
        trace.update("j", (0,), {"c": 1})
        assert trace.record_count() == 4

    def test_maybe_compact_only_past_threshold(self):
        trace = Trace()
        for epoch in range(KEY_FOLD_THRESHOLD):
            trace.update("k", (epoch, 0), {"a": 1})
        trace.maybe_compact("k", KEY_FOLD_THRESHOLD)
        assert len(trace.get("k").entries) == KEY_FOLD_THRESHOLD
        trace.update("k", (KEY_FOLD_THRESHOLD, 0), {"a": 1})
        trace.maybe_compact("k", KEY_FOLD_THRESHOLD + 1)
        assert len(trace.get("k").entries) == 1
        assert trace.accumulate("k", (30, 0)) == \
            {"a": KEY_FOLD_THRESHOLD + 1}


class TestTimeSchedule:
    def test_simple_scheduling(self):
        schedule = TimeSchedule()
        schedule.schedule("k", (0, 1))
        assert schedule.tasks_at((0, 1)) == {"k"}
        assert not list(schedule.pending_times())

    def test_lub_closure_scheduling(self):
        schedule = TimeSchedule()
        schedule.schedule("k", (0, 5))
        schedule.tasks_at((0, 5))
        # A later diff at an incomparable time must also schedule the join.
        schedule.schedule("k", (1, 2))
        pending = set(schedule.pending_times())
        assert (1, 2) in pending
        assert (1, 5) in pending

    def test_redirty_reschedules_later_joins(self):
        schedule = TimeSchedule()
        schedule.schedule("k", (0, 5))
        schedule.schedule("k", (1, 2))
        for time in list(schedule.pending_times()):
            schedule.tasks_at(time)
        # Re-dirtying (1, 2) must re-enqueue (1, 5) too.
        schedule.schedule("k", (1, 2))
        assert (1, 5) in set(schedule.pending_times())

    @given(st.lists(times2, min_size=1, max_size=6))
    def test_scheduled_times_cover_upward_closure(self, arrival_times):
        """Every closure element >= the last arrival gets a task."""
        schedule = TimeSchedule()
        for time in arrival_times:
            schedule.schedule("k", time)
        closure = lub_closure(arrival_times)
        last = arrival_times[-1]
        pending = set(schedule.pending_times())
        for element in closure:
            if leq(last, element):
                assert element in pending


# -- scheduling pins: exact task sets and per-slot key order ------------------


class _FrontierWalkSchedule:
    """Reference scheduler: the frontier walk the engine used before the
    one-pass closure update. Kept verbatim so the per-slot key order of
    the real scheduler can be compared against it."""

    def __init__(self):
        self._seen = {}
        self._agenda = {}

    def schedule(self, key, time):
        seen = self._seen.get(key)
        if seen is None:
            seen = set()
            self._seen[key] = seen
        if len(seen) > 48:
            epoch = time[0]
            seen = {((0,) + s[1:]) if s[0] < epoch else s for s in seen}
            self._seen[key] = seen
        if time not in seen:
            frontier = [time]
            while frontier:
                u = frontier.pop()
                if u in seen:
                    continue
                seen.add(u)
                for s in list(seen):
                    j = lub(s, u)
                    if j not in seen:
                        frontier.append(j)
        for u in seen:
            if leq(time, u):
                slot = self._agenda.get(u)
                if slot is None:
                    self._agenda[u] = {key}
                else:
                    slot.add(key)

    def tasks_at(self, time):
        return self._agenda.pop(time, set())


#: Coordinate range per arity: wide enough that a key's closure can pass
#: the scheduler's 48-time compaction threshold.
_COORD = {1: 60, 2: 9, 3: 4}


@st.composite
def arrivals(draw, max_size=40):
    """A sequence of ``(key, time)`` arrivals (repeats allowed) at one
    random arity."""
    arity = draw(st.integers(1, 3))
    time = st.tuples(*[st.integers(0, _COORD[arity])] * arity)
    return draw(st.lists(
        st.tuples(st.sampled_from("abc"), time), min_size=1,
        max_size=max_size))


def _engine_order_arrivals(seed, arity, count=140):
    """Epoch-major arrivals for two keys, as the engine produces them:
    long enough to cross the compaction threshold at every arity."""
    rng = random.Random(seed)
    out = []
    epoch = 0
    for _ in range(count):
        epoch += rng.random() < (0.6 if arity == 1 else 0.15)
        out.append((rng.choice("ab"), (epoch,) + tuple(
            rng.randrange(6) for _ in range(arity - 1))))
    return out


def _check_exact(arrival_seq):
    """Each call enqueues the key at exactly the closure elements >= t.

    The model keeps each key's lub-closed time set, compacted by the
    same rule as the scheduler (past epochs fold to epoch 0 once a key
    holds more than 48 times). Returns the largest set a key reached."""
    schedule = TimeSchedule()
    model = {}
    largest = 0
    for key, time in arrival_seq:
        seen = model.get(key, set())
        largest = max(largest, len(seen))
        if len(seen) > 48:
            seen = {((0,) + s[1:]) if s[0] < time[0] else s for s in seen}
        closure = lub_closure(seen | {time})
        model[key] = closure
        want = {u for u in closure if leq(time, u)}
        got = set()
        for pending in list(schedule.pending_times()):
            assert schedule.tasks_at(pending) == set()
        schedule.schedule(key, time)
        for pending in list(schedule.pending_times()):
            assert schedule.tasks_at(pending) == {key}
            got.add(pending)
        assert got == want, (key, time)
    return largest


def _check_order(arrival_seq, drain_every=5):
    """Per agenda slot, key order matches the reference scheduler, with
    slots drained along the way as the engine's flushes do."""
    schedule = TimeSchedule()
    reference = _FrontierWalkSchedule()
    for step, (key, time) in enumerate(arrival_seq):
        schedule.schedule(key, time)
        reference.schedule(key, time)
        assert ({t: list(keys) for t, keys in schedule._agenda.items()}
                == {t: list(keys) for t, keys in reference._agenda.items()})
        if step % drain_every == drain_every - 1:
            first = min(reference._agenda)
            assert list(schedule.tasks_at(first)) == \
                list(reference.tasks_at(first))


class TestSchedulePins:
    @settings(max_examples=150, deadline=None)
    @given(arrivals())
    def test_enqueues_exactly_the_upward_closure(self, arrival_seq):
        _check_exact(arrival_seq)

    @settings(max_examples=150, deadline=None)
    @given(arrivals())
    def test_slot_key_order_matches_reference(self, arrival_seq):
        _check_order(arrival_seq)

    @pytest.mark.parametrize("arity", [1, 2, 3])
    @pytest.mark.parametrize("seed", range(3))
    def test_past_compaction_threshold(self, arity, seed):
        arrival_seq = _engine_order_arrivals(seed, arity)
        # The sequence really exercises the > 48 compaction path.
        assert _check_exact(arrival_seq) > 48
        _check_order(arrival_seq)
