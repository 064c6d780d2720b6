"""Unit tests for the trace sink, critical-path analysis, and exporters."""

import json

import pytest

from repro.observe import (
    TraceSink,
    UNTRACKED,
    chrome_trace,
    critical_path,
    flame_rollup,
    validate_chrome_trace,
    write_chrome_trace,
)


def sink_with_one_step(workers=2):
    sink = TraceSink(workers)
    sink.enter_operator("op.a", 1, (0,))
    sink.begin_step()
    sink.record(0, 10)
    sink.record(1, 4)
    sink.end_step()
    sink.exit_operator()
    sink.mark()
    return sink


class TestTraceSink:
    def test_step_record_mirrors_meter_frame(self):
        sink = sink_with_one_step()
        assert len(sink.steps) == 1
        step = sink.steps[0]
        assert step.kind == "step"
        assert step.worker_units == {0: 10, 1: 4}
        assert step.units == 14
        assert step.critical_units == 10  # max, like the meter
        assert step.critical_worker == 0
        assert sink.total_units == 14

    def test_serial_work_outside_frames(self):
        sink = TraceSink(4)
        sink.enter_operator("loader", 1, (0,))
        sink.record(2, 7)
        sink.exit_operator()
        assert sink.steps == []  # open until flushed
        sink.mark()
        assert len(sink.steps) == 1
        serial = sink.steps[0]
        assert serial.kind == "serial"
        assert serial.critical_units == 7  # serial work costs its sum
        assert serial.critical_worker is None

    def test_begin_step_flushes_open_serial_stretch(self):
        sink = TraceSink(2)
        sink.enter_operator("input", 1, (0,))
        sink.record(0, 3)
        sink.begin_step()
        sink.record(1, 5)
        sink.end_step()
        sink.exit_operator()
        kinds = [s.kind for s in sink.steps]
        assert kinds == ["serial", "step"]

    def test_empty_steps_are_dropped(self):
        sink = TraceSink(2)
        sink.begin_step()
        sink.end_step()
        sink.mark()
        assert sink.steps == []

    def test_nested_frames_attribute_to_innermost(self):
        sink = TraceSink(2)
        sink.enter_operator("outer", 1, (0,))
        sink.begin_step()
        sink.record(0, 1)
        sink.begin_step()  # nested iterate frame
        sink.record(0, 9)
        sink.end_step()
        sink.record(0, 2)
        sink.end_step()
        sink.exit_operator()
        inner, outer = sink.steps
        assert inner.units == 9
        assert outer.units == 3

    def test_operator_context_stack(self):
        sink = TraceSink(1)
        sink.begin_step()
        sink.enter_operator("a", 1, (0,))
        sink.record(0, 1)
        sink.enter_operator("b", 2, (0, 1))
        sink.record(0, 2)
        sink.exit_operator()
        sink.record(0, 4)
        sink.exit_operator()
        sink.end_step()
        step = sink.steps[0]
        assert step.op_units[("a", (0,), 0)] == 5
        assert step.op_units[("b", (0, 1), 0)] == 2

    def test_untracked_label_when_no_operator_context(self):
        sink = TraceSink(1)
        sink.begin_step()
        sink.record(0, 6)
        sink.end_step()
        spans = list(sink.steps[0].spans())
        assert spans[0].operator == UNTRACKED
        assert spans[0].time is None

    def test_mark_and_window(self):
        sink = TraceSink(1)
        sink.enter_operator("x", 1, (0,))
        start = sink.mark()
        sink.begin_step()
        sink.record(0, 5)
        sink.end_step()
        end = sink.mark()
        sink.begin_step()
        sink.record(0, 3)
        sink.end_step()
        sink.exit_operator()
        window = sink.window(start, end)
        assert [s.units for s in window] == [5]

    def test_spans_carry_epoch(self):
        sink = sink_with_one_step()
        spans = [span for step in sink.steps for span in step.spans()]
        assert {s.epoch for s in spans} == {0}
        assert sum(s.units for s in spans) == 14


class TestCriticalPath:
    def test_step_contributes_max_serial_contributes_sum(self):
        sink = TraceSink(2)
        sink.enter_operator("load", 1, (0,))
        sink.record(0, 3)
        sink.record(1, 4)  # serial stretch: 7 units
        sink.exit_operator()
        sink.enter_operator("op", 1, (0,))
        sink.begin_step()
        sink.record(0, 10)
        sink.record(1, 6)  # superstep: max = 10
        sink.end_step()
        sink.exit_operator()
        sink.mark()
        report = critical_path(sink.steps, view_name="v")
        assert report.length == 17
        assert report.supersteps == 1
        assert report.serial_units == 7

    def test_only_critical_workers_spans_on_path(self):
        sink = TraceSink(2)
        sink.begin_step()
        sink.enter_operator("hot", 1, (0,))
        sink.record(0, 10)
        sink.exit_operator()
        sink.enter_operator("cold", 1, (0,))
        sink.record(1, 2)
        sink.exit_operator()
        sink.end_step()
        report = critical_path(sink.steps)
        assert [c.operator for c in report.contributors] == ["hot"]
        assert report.length == 10

    def test_tie_breaks_to_lowest_worker_id(self):
        sink = TraceSink(2)
        sink.begin_step()
        sink.enter_operator("a", 1, (0,))
        sink.record(1, 5)
        sink.record(0, 5)
        sink.exit_operator()
        sink.end_step()
        assert sink.steps[0].critical_worker == 0

    def test_contributor_sum_equals_length(self):
        sink = sink_with_one_step()
        report = critical_path(sink.steps)
        assert sum(c.units for c in report.contributors) == report.length

    def test_contributors_sorted_largest_first(self):
        sink = TraceSink(1)
        sink.begin_step()
        sink.enter_operator("small", 1, (0,))
        sink.record(0, 1)
        sink.exit_operator()
        sink.enter_operator("big", 1, (1,))
        sink.record(0, 9)
        sink.exit_operator()
        sink.end_step()
        report = critical_path(sink.steps)
        assert [(c.operator, c.epoch) for c in report.contributors] == \
            [("big", 1), ("small", 0)]

    def test_render_mentions_view_and_share(self):
        sink = sink_with_one_step()
        text = critical_path(sink.steps, view_name="k").render()
        assert "critical path for 'k'" in text
        assert "%" in text


class TestChromeTrace:
    def test_valid_and_counts_complete_events(self):
        sink = sink_with_one_step()
        payload = chrome_trace(sink.steps, workers=2, label="test")
        assert validate_chrome_trace(payload) == 2  # one span per worker
        assert payload["otherData"]["parallel_time_units"] == 10

    def test_round_trips_through_json(self):
        sink = sink_with_one_step()
        payload = json.loads(json.dumps(chrome_trace(sink.steps, workers=2)))
        assert validate_chrome_trace(payload) == 2

    def test_serial_spans_get_their_own_lane(self):
        sink = TraceSink(2)
        sink.enter_operator("load", 1, (0,))
        sink.record(0, 3)
        sink.exit_operator()
        sink.mark()
        payload = chrome_trace(sink.steps, workers=2)
        complete = [e for e in payload["traceEvents"] if e["ph"] == "X"]
        assert complete[0]["tid"] == 2  # lane after workers 0..1

    def test_timeline_end_is_parallel_time(self):
        sink = TraceSink(2)
        for units in ((10, 4), (2, 8)):
            sink.begin_step()
            sink.enter_operator("op", 1, (0,))
            sink.record(0, units[0])
            sink.record(1, units[1])
            sink.exit_operator()
            sink.end_step()
        payload = chrome_trace(sink.steps, workers=2)
        assert payload["otherData"]["parallel_time_units"] == 18

    def test_validator_rejects_garbage(self):
        with pytest.raises(ValueError, match="JSON object"):
            validate_chrome_trace([1, 2])
        with pytest.raises(ValueError, match="traceEvents"):
            validate_chrome_trace({"foo": 1})
        with pytest.raises(ValueError, match="unsupported ph"):
            validate_chrome_trace(
                {"traceEvents": [{"ph": "Z", "name": "x",
                                  "pid": 1, "tid": 0}]})
        with pytest.raises(ValueError, match="invalid ts"):
            validate_chrome_trace(
                {"traceEvents": [{"ph": "X", "name": "x", "pid": 1,
                                  "tid": 0, "ts": -1, "dur": 0}]})

    def test_write_is_loadable(self, tmp_path):
        sink = sink_with_one_step()
        path = tmp_path / "trace.json"
        write_chrome_trace(sink.steps, path, workers=2)
        assert validate_chrome_trace(json.loads(path.read_text())) == 2


class TestFlameRollup:
    def test_rollup_totals_and_ranking(self):
        sink = TraceSink(1)
        sink.begin_step()
        sink.enter_operator("join", 1, (0,))
        sink.record(0, 30)
        sink.exit_operator()
        sink.enter_operator("map", 1, (0,))
        sink.record(0, 10)
        sink.exit_operator()
        sink.end_step()
        text = flame_rollup(sink.steps)
        assert "40 units across 2 operators" in text
        assert text.index("join") < text.index("map")

    def test_scope_depth_indents_loop_bodies(self):
        sink = TraceSink(1)
        sink.begin_step()
        sink.enter_operator("loop.body", 2, (0, 1))
        sink.record(0, 5)
        sink.exit_operator()
        sink.end_step()
        assert "· loop.body" in flame_rollup(sink.steps)

    def test_top_limits_and_reports_dropped(self):
        sink = TraceSink(1)
        sink.begin_step()
        for i in range(5):
            sink.enter_operator(f"op{i}", 1, (0,))
            sink.record(0, 5 - i)
            sink.exit_operator()
        sink.end_step()
        text = flame_rollup(sink.steps, top=2)
        assert "... 3 more operators" in text
