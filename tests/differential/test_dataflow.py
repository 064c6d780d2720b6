"""Dataflow construction and driver error paths."""

import pytest

from repro.differential import Dataflow
from repro.errors import DataflowError


class TestConstruction:
    def test_duplicate_input_name_rejected(self):
        df = Dataflow()
        df.new_input("edges")
        with pytest.raises(DataflowError, match="duplicate input"):
            df.new_input("edges")

    def test_unknown_input_rejected_at_step(self):
        df = Dataflow()
        df.new_input("edges")
        with pytest.raises(DataflowError, match="unknown input"):
            df.step({"nodes": {1: 1}})

    def test_capture_requires_root_scope(self):
        df = Dataflow()
        source = df.new_input("in")
        captured = {}

        def body(inner, scope):
            captured["inner"] = inner
            return inner.map(lambda rec: rec)

        source.iterate(body)
        with pytest.raises(DataflowError, match="root scope"):
            df.capture(captured["inner"], "bad")

    def test_frozen_after_first_step(self):
        df = Dataflow()
        df.new_input("in")
        df.step({})
        with pytest.raises(DataflowError, match="frozen|after the dataflow"):
            df.new_input("late")

    def test_workers_validation(self):
        with pytest.raises(ValueError):
            Dataflow(workers=0)


class TestDriver:
    def test_step_returns_epoch_indices(self):
        df = Dataflow()
        df.new_input("in")
        assert df.step({}) == 0
        assert df.step({}) == 1

    def test_step_without_inputs(self):
        df = Dataflow()
        source = df.new_input("in")
        out = df.capture(source.map(lambda x: x), "out")
        df.step()
        assert out.value_at_epoch(0) == {}

    def test_zero_multiplicity_input_ignored(self):
        df = Dataflow()
        source = df.new_input("in")
        out = df.capture(source, "out")
        df.step({"in": {1: 0}})
        assert out.value_at_epoch(0) == {}

    def test_meter_attached_and_counting(self):
        df = Dataflow(workers=4)
        source = df.new_input("in")
        df.capture(source.map(lambda x: x + 1), "out")
        df.step({"in": {1: 1, 2: 1}})
        assert df.meter.total_work > 0
        assert df.meter.workers == 4
