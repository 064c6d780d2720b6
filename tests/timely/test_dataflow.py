"""The timely batch dataflow layer."""

import pytest

from repro.errors import DataflowError
from repro.timely.dataflow import TimelyDataflow


class TestOperators:
    def test_map(self):
        td = TimelyDataflow(workers=3)
        out = td.input("in").map(lambda x: x * 2).capture()
        td.run({"in": [1, 2, 3]})
        assert sorted(out.records) == [2, 4, 6]

    def test_flat_map_and_filter(self):
        td = TimelyDataflow(workers=2)
        out = td.input("in").flat_map(lambda x: range(x)).filter(
            lambda x: x % 2 == 0).capture()
        td.run({"in": [3, 4]})
        assert sorted(out.records) == [0, 0, 2, 2]

    def test_concat(self):
        td = TimelyDataflow()
        a = td.input("a")
        b = td.input("b")
        out = a.concat(b).capture()
        td.run({"a": [1], "b": [2, 3]})
        assert sorted(out.records) == [1, 2, 3]

    def test_exchange_groups_keys_on_one_worker(self):
        td = TimelyDataflow(workers=4)
        stream = td.input("in").exchange(lambda rec: rec[0])
        stream.capture()
        td.run({"in": [("k", i) for i in range(10)]})
        shards = [shard for shard in stream.op.output if shard]
        assert len(shards) == 1  # all records of key "k" on one worker

    def test_aggregate(self):
        td = TimelyDataflow(workers=4)
        out = td.input("in").aggregate(
            lambda rec: rec[0], lambda recs: sum(v for _k, v in recs)
        ).capture()
        td.run({"in": [("a", 1), ("b", 2), ("a", 3)]})
        assert sorted(out.records) == [("a", 4), ("b", 2)]

    def test_join(self):
        td = TimelyDataflow(workers=4)
        left = td.input("l")
        right = td.input("r")
        out = left.join(right, lambda k, a, b: (k, a + b)).capture()
        td.run({"l": [("x", 1), ("y", 10)], "r": [("x", 2), ("x", 3)]})
        assert sorted(out.records) == [("x", 3), ("x", 4)]

    def test_workers_do_not_change_results(self):
        def run(workers):
            td = TimelyDataflow(workers=workers)
            out = td.input("in").aggregate(
                lambda rec: rec % 5, lambda recs: len(recs)).capture()
            td.run({"in": list(range(100))})
            return sorted(out.records)

        assert run(1) == run(7)

    def test_parallelism_reduces_simulated_time(self):
        def parallel_time(workers):
            td = TimelyDataflow(workers=workers)
            td.input("in").map(lambda x: x + 1).capture()
            td.run({"in": list(range(4000))})
            return td.meter.parallel_time

        assert parallel_time(8) < parallel_time(1)

    def test_each_shard_is_charged_to_its_own_worker(self):
        # Regression: shard w's units went through meter.record(w), which
        # re-hashed the shard index as if it were a key — shard_for(w, W)
        # is [0, 0] at W=2 and [0, 2, 1, 0] at W=4, so two shards piled
        # onto one worker and parallel_time read 1000 / 1000 / 500.
        def counters(workers):
            td = TimelyDataflow(workers=workers)
            td.input("in").map(lambda x: x + 1).capture()
            td.run({"in": range(1000)})  # round-robin: 1000/W per shard
            meter = td.meter
            return meter.total_work, meter.supersteps, meter.parallel_time

        assert counters(1) == (1000, 1, 1000)
        assert counters(2) == (1000, 1, 500)
        assert counters(4) == (1000, 1, 250)

    def test_shard_spans_land_on_the_shard_worker(self):
        from repro.observe.tracer import TraceSink
        from repro.timely.meter import WorkMeter

        tracer = TraceSink(4)
        td = TimelyDataflow(workers=4, meter=WorkMeter(4, tracer=tracer))
        td.input("in").map(lambda x: x + 1).capture()
        td.run({"in": range(8)})
        [step] = tracer.steps
        assert step.worker_units == {0: 2, 1: 2, 2: 2, 3: 2}


class TestErrors:
    def test_duplicate_input(self):
        td = TimelyDataflow()
        td.input("in")
        with pytest.raises(DataflowError, match="duplicate"):
            td.input("in")

    def test_unknown_input_at_run(self):
        td = TimelyDataflow()
        td.input("in")
        with pytest.raises(DataflowError, match="unknown input"):
            td.run({"other": []})

    def test_missing_input_feeds_empty(self):
        td = TimelyDataflow()
        out = td.input("in").capture()
        td.run({})
        assert out.records == []
