"""Tests for difference traces, accumulation, the capture log's fold,
and scheduling."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.differential.timestamp import leq, lub, lub_closure
from repro.differential.trace import KeyTrace, TimeSchedule, Trace, key_time

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
        assert not trace.entries

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


class TestCaptureLogFold:
    """``KeyTrace.compact_below``: the per-epoch capture log's fold."""

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

    def test_key_time_drops_the_epoch(self):
        assert key_time((7,)) == (0,)
        assert key_time((7, 3)) == (0, 3)
        assert key_time((7, 3, 1)) == (0, 3, 1)

    def test_record_count_counts_the_folded_entries(self):
        trace = Trace()
        trace.update_batch((0,), {"k": {"a": 1, "b": 1}, "j": {"c": 1}})
        trace.update_batch((1,), {"k": {"a": -1}})
        # Both epochs share the root key time: "a" cancelled there.
        assert trace.record_count() == 2

    def test_a_keyed_trace_holds_one_entry_per_loop_suffix(self):
        trace = Trace()
        for epoch in range(30):
            trace.update_batch((epoch, 0), {"k": {"a": 1}})
            trace.update_batch((epoch, 1), {"k": {"b": 1}})
        assert set(trace.get("k").entries) == {(0, 0), (0, 1)}
        assert trace.accumulate("k", key_time((30, 0))) == {"a": 30}
        assert trace.accumulate("k", key_time((30, 1))) == \
            {"a": 30, "b": 30}

    def test_a_key_is_dropped_by_the_write_that_empties_it(self):
        trace = Trace()
        trace.update_batch((0,), {"gone": {"v": 1}, "kept": {"v": 1}})
        trace.update_batch((1,), {"gone": {"v": -1}})
        assert "gone" not in trace and "kept" in trace
        trace.update("kept", (0,), {"v": -1})
        assert "kept" not in trace


class TestTimeSchedule:
    def test_simple_scheduling(self):
        schedule = TimeSchedule()
        schedule.schedule(["k"], (0, 1))
        assert schedule.tasks_at((0, 1)) == {"k"}
        assert not list(schedule.pending_times())

    def test_lub_closure_scheduling(self):
        schedule = TimeSchedule()
        schedule.schedule(["k"], (0, 5))
        schedule.tasks_at((0, 5))
        # A later diff at an incomparable time must also schedule the join.
        schedule.schedule(["k"], (1, 2))
        pending = set(schedule.pending_times())
        assert (1, 2) in pending
        assert (1, 5) in pending

    def test_redirty_reschedules_later_joins(self):
        schedule = TimeSchedule()
        schedule.schedule(["k"], (0, 5))
        schedule.schedule(["k"], (1, 2))
        for time in list(schedule.pending_times()):
            schedule.tasks_at(time)
        # Re-dirtying (1, 2) must re-enqueue (1, 5) too.
        schedule.schedule(["k"], (1, 2))
        assert (1, 5) in set(schedule.pending_times())

    def test_root_scope_keys_schedule_only_their_time(self):
        schedule = TimeSchedule()
        for epoch in range(5):
            schedule.schedule({"a": {}, "b": {}}, (epoch,))
            assert schedule._agenda == {(epoch,): {"a", "b"}}
            assert not schedule._seen
            schedule.tasks_at((epoch,))

    @given(st.lists(times2, min_size=1, max_size=6))
    def test_scheduled_times_cover_upward_closure(self, arrival_times):
        """Every closure element >= the last arrival gets a task."""
        arrival_times = sorted(arrival_times, key=lambda time: time[0])
        schedule = TimeSchedule()
        for time in arrival_times:
            schedule.schedule(["k"], time)
        closure = lub_closure(arrival_times)
        last = arrival_times[-1]
        pending = set(schedule.pending_times())
        for element in closure:
            if leq(last, element):
                assert element in pending


# -- scheduling pins: per-slot key order --------------------------------------


class _FrontierWalkSchedule:
    """Reference scheduler: the frontier walk over a key's full times,
    one arrival at a time. The per-slot key order of the real scheduler
    is compared against it."""

    def __init__(self):
        self._seen = {}
        self._agenda = {}

    def schedule(self, key, time):
        seen = self._seen.setdefault(key, set())
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


#: Coordinate range per arity.
_COORD = {1: 60, 2: 9, 3: 4}


@st.composite
def arrivals(draw, max_size=40):
    """A forward-only sequence of ``(key, time)`` arrivals (repeats
    allowed) at one random arity: epochs never decrease, as the epoch
    driver guarantees."""
    arity = draw(st.integers(1, 3))
    time = st.tuples(*[st.integers(0, _COORD[arity])] * arity)
    drawn = draw(st.lists(
        st.tuples(st.sampled_from("abc"), time), min_size=1,
        max_size=max_size))
    return sorted(drawn, key=lambda arrival: arrival[1][0])


def _engine_order_arrivals(seed, arity, count=140):
    """Epoch-major arrivals for two keys, as the engine produces them."""
    rng = random.Random(seed)
    out = []
    epoch = 0
    for _ in range(count):
        epoch += rng.random() < (0.6 if arity == 1 else 0.15)
        out.append((rng.choice("ab"), (epoch,) + tuple(
            rng.randrange(6) for _ in range(arity - 1))))
    return out


def _check_order(arrival_seq, drain_every=5):
    """Per agenda slot, key order matches the reference scheduler, with
    slots drained along the way as the engine's flushes do."""
    schedule = TimeSchedule()
    reference = _FrontierWalkSchedule()
    for step, (key, time) in enumerate(arrival_seq):
        schedule.schedule([key], time)
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
    def test_slot_key_order_matches_reference(self, arrival_seq):
        _check_order(arrival_seq)

    @pytest.mark.parametrize("arity", [1, 2, 3])
    @pytest.mark.parametrize("seed", range(3))
    def test_long_engine_order_sequences(self, arity, seed):
        arrival_seq = _engine_order_arrivals(seed, arity)
        _check_order(arrival_seq)
        schedule = TimeSchedule()
        for key, time in arrival_seq:
            schedule.schedule([key], time)
        # A key keeps its loop suffixes, never one entry per epoch.
        for seen in schedule._seen.values():
            assert len(seen) <= 6 ** (arity - 1)
