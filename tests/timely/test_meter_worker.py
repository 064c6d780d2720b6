"""Work meter and worker sharding tests."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.timely.meter import WorkMeter
from repro.timely.worker import shard_for, stable_hash


class TestStableHash:
    def test_deterministic_across_calls(self):
        assert stable_hash("abc") == stable_hash("abc")
        assert stable_hash(12345) == stable_hash(12345)
        assert stable_hash((1, "x")) == stable_hash((1, "x"))

    def test_spreads_small_ints(self):
        shards = {shard_for(i, 8) for i in range(100)}
        assert len(shards) == 8

    @given(st.one_of(st.integers(), st.text(), st.booleans(), st.none(),
                     st.tuples(st.integers(), st.text())))
    def test_hash_in_64_bit_range(self, value):
        h = stable_hash(value)
        assert 0 <= h < 2 ** 64

    def test_distinct_values_differ(self):
        assert stable_hash("a") != stable_hash("b")
        assert stable_hash(True) != stable_hash(False)
        assert stable_hash(1) != stable_hash(2)


class TestShardFor:
    def test_single_worker_always_zero(self):
        assert shard_for("anything", 1) == 0

    @given(st.integers(), st.integers(2, 16))
    def test_in_range(self, key, workers):
        assert 0 <= shard_for(key, workers) < workers


class TestWorkMeter:
    def test_serial_work_outside_steps(self):
        meter = WorkMeter(workers=4)
        meter.record("k", 10)
        assert meter.total_work == 10
        assert meter.parallel_time == 10

    def test_parallel_time_is_max_per_worker(self):
        meter = WorkMeter(workers=2)
        meter.begin_step()
        # Find two keys on different workers.
        keys = {}
        for i in range(100):
            keys.setdefault(shard_for(i, 2), i)
            if len(keys) == 2:
                break
        meter.record(keys[0], 10)
        meter.record(keys[1], 4)
        meter.end_step()
        assert meter.total_work == 14
        assert meter.parallel_time == 10
        assert meter.supersteps == 1

    def test_empty_step_not_counted(self):
        meter = WorkMeter()
        meter.begin_step()
        meter.end_step()
        assert meter.supersteps == 0

    def test_zero_units_ignored(self):
        meter = WorkMeter()
        meter.record("k", 0)
        assert meter.total_work == 0

    def test_snapshot_delta(self):
        meter = WorkMeter()
        meter.record("k", 5)
        first = meter.snapshot()
        meter.record("k", 7)
        delta = first.delta(meter.snapshot())
        assert delta.total_work == 7

    def test_invalid_worker_count(self):
        with pytest.raises(ValueError):
            WorkMeter(workers=0)

    def test_more_workers_not_slower(self):
        """Simulated parallel time must be monotone in worker count."""
        def run(workers):
            meter = WorkMeter(workers=workers)
            meter.begin_step()
            for i in range(200):
                meter.record(i, 1)
            meter.end_step()
            return meter.parallel_time

        t1, t4, t8 = run(1), run(4), run(8)
        assert t1 >= t4 >= t8
        assert t1 == 200


class TestStableHashFloatCanonicalization:
    """Regression: keys that compare equal must hash (and shard) equal.

    ``stable_hash`` used to route every float through ``float.hex()``,
    so ``3.0`` and ``3`` — equal keys in Python — landed on different
    workers, and ``-0.0`` split from ``0.0`` via its ``'-0x0.0p+0'``
    spelling. Integral floats now canonicalize to the int path.
    """

    def test_integral_float_hashes_like_int(self):
        assert stable_hash(3.0) == stable_hash(3)
        assert stable_hash(-17.0) == stable_hash(-17)
        assert stable_hash(0.0) == stable_hash(0)

    def test_negative_zero_hashes_like_zero(self):
        assert stable_hash(-0.0) == stable_hash(0.0)
        assert stable_hash(-0.0) == stable_hash(0)

    def test_non_integral_floats_unaffected(self):
        assert stable_hash(3.5) == stable_hash((3.5).hex())
        assert stable_hash(3.5) != stable_hash(3)

    def test_nan_and_inf_do_not_crash(self):
        for value in (float("nan"), float("inf"), float("-inf")):
            assert 0 <= stable_hash(value) < 2 ** 64

    def test_tuples_with_integral_floats(self):
        assert stable_hash((1.0, "x")) == stable_hash((1, "x"))

    @given(st.integers(-2 ** 52, 2 ** 52), st.integers(2, 16))
    def test_equal_keys_shard_together(self, value, workers):
        assert shard_for(float(value), workers) == shard_for(value, workers)

    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_float_hash_is_deterministic(self, value):
        assert stable_hash(value) == stable_hash(value)


class TestMeterAttributionMatchesShardFor:
    """Property: the sink's per-worker attribution is exactly ``shard_for``.

    The meter is the single sharding authority — the trace sink receives
    the already-sharded worker id, so for every recorded key the units
    must land on ``shard_for(key, workers)`` and nowhere else, and the
    sink's frame totals must reproduce the meter's parallel time.
    """

    @given(st.lists(st.tuples(
        st.one_of(st.integers(), st.text(max_size=8),
                  st.floats(allow_nan=False, allow_infinity=False),
                  st.tuples(st.integers(), st.integers())),
        st.integers(1, 20)), min_size=1, max_size=40),
        st.integers(1, 8))
    def test_sink_workers_agree_with_shard_for(self, records, workers):
        from repro.observe import TraceSink

        sink = TraceSink(workers)
        meter = WorkMeter(workers=workers)
        meter.tracer = sink
        meter.begin_step()
        expected = {}
        for key, units in records:
            meter.record(key, units)
            worker = shard_for(key, workers)
            expected[worker] = expected.get(worker, 0) + units
        meter.end_step()
        sink.mark()
        assert len(sink.steps) == 1
        step = sink.steps[0]
        assert step.worker_units == expected
        assert step.critical_units == max(expected.values())
        assert meter.parallel_time == step.critical_units
        assert meter.total_work == sink.total_units

    @given(st.lists(st.tuples(st.integers(), st.integers(1, 9)),
                    min_size=1, max_size=30))
    def test_serial_attribution_matches_too(self, records):
        from repro.observe import TraceSink

        workers = 4
        sink = TraceSink(workers)
        meter = WorkMeter(workers=workers)
        meter.tracer = sink
        for key, units in records:
            meter.record(key, units)
        sink.mark()
        total = sum(units for _key, units in records)
        assert sink.total_units == total
        # Serial work is charged at its full sum, as the meter does.
        assert sum(s.critical_units for s in sink.steps) == \
            meter.parallel_time == total
        for step in sink.steps:
            for (_op, _time, worker), units in step.op_units.items():
                assert 0 <= worker < workers
