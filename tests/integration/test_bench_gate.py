"""The hot-path benchmark-regression gate: JSON baseline + comparison."""

import importlib.util
import sys
from pathlib import Path

import pytest

from repro.bench.reporting import (
    BENCH_SCHEMA,
    bench_to_json,
    compare_benchmarks,
    load_bench_json,
)

REPO_ROOT = Path(__file__).resolve().parents[2]


def _scenario(score, work):
    return {"wall_seconds": score * 0.1, "score": score,
            "work": work, "parallel_time": work}


def _payload(**scenarios):
    return {"suite": "hotpath", "schema": BENCH_SCHEMA,
            "calibration_seconds": 0.1, "scenarios": scenarios}


class TestBaselineJson:
    def test_round_trip(self, tmp_path):
        payload = _payload(join_heavy=_scenario(10.0, 1000))
        path = tmp_path / "bench.json"
        bench_to_json(payload, path)
        assert load_bench_json(path) == payload

    def test_schema_mismatch_rejected(self, tmp_path):
        payload = _payload()
        payload["schema"] = BENCH_SCHEMA + 1
        path = tmp_path / "bench.json"
        bench_to_json(payload, path)
        with pytest.raises(ValueError, match="schema"):
            load_bench_json(path)

    def test_interrupted_write_never_tears_the_baseline(self, tmp_path,
                                                        monkeypatch):
        """Regression: ``bench_to_json`` used to write the baseline with a
        bare ``write_text``, so an interrupted ``--update-baseline`` run
        could leave a torn JSON file that the gate then chokes on. The
        write now goes through the atomic-replace helper: a crash mid-
        write leaves the previous baseline fully loadable."""
        import repro.core.persistence as persistence

        path = tmp_path / "bench.json"
        good = _payload(join_heavy=_scenario(10.0, 1000))
        bench_to_json(good, path)

        def exploding_replace(src, dst):
            raise OSError("killed mid-update")

        monkeypatch.setattr(persistence.os, "replace", exploding_replace)
        with pytest.raises(OSError):
            bench_to_json(_payload(join_heavy=_scenario(1.0, 1)), path)
        monkeypatch.undo()
        assert load_bench_json(path) == good
        assert compare_benchmarks(good, load_bench_json(path)) == []


class TestCompareGate:
    def test_wall_clock_is_not_gated(self):
        base = _payload(a=_scenario(10.0, 1000))
        cur = _payload(a=_scenario(13.0, 1000))
        assert compare_benchmarks(cur, base) == []

    def test_work_change_flagged(self):
        base = _payload(a=_scenario(10.0, 1000))
        cur = _payload(a=_scenario(10.0, 1001))
        cur["scenarios"]["a"]["parallel_time"] = 1000
        problems = compare_benchmarks(cur, base)
        assert len(problems) == 1
        assert "a: work changed (1000 -> 1001)" in problems[0]

    def test_parallel_time_change_flagged(self):
        base = _payload(a=_scenario(10.0, 1000))
        cur = _payload(a=_scenario(10.0, 1000))
        cur["scenarios"]["a"]["parallel_time"] = 999
        problems = compare_benchmarks(cur, base)
        assert len(problems) == 1
        assert "parallel_time changed (1000 -> 999)" in problems[0]

    def test_missing_scenario_is_a_regression(self):
        base = _payload(a=_scenario(10.0, 1000), b=_scenario(5.0, 500))
        cur = _payload(a=_scenario(10.0, 1000))
        problems = compare_benchmarks(cur, base)
        assert problems == ["b: scenario missing from current run"]

    def test_lower_work_is_a_change_too(self):
        # Counters are deterministic: a drop is as much an engine change
        # as a rise, and re-records the baseline in its own commit.
        base = _payload(a=_scenario(10.0, 1000))
        cur = _payload(a=_scenario(3.0, 400))
        problems = compare_benchmarks(cur, base)
        assert len(problems) == 2
        assert all("changed (1000 -> 400)" in p for p in problems)

    def test_unbaselined_scenario_is_a_problem(self):
        # A scenario the current run measures but the baseline does not
        # is unguarded: the gate used to silently pass it (iterating only
        # baseline scenarios), so a new benchmark could regress forever
        # without anyone noticing. It must be reported.
        base = _payload(a=_scenario(10.0, 1000))
        cur = _payload(a=_scenario(3.0, 1000), b=_scenario(1.0, 10))
        problems = compare_benchmarks(cur, base)
        assert len(problems) == 1
        assert "b" in problems[0]
        assert "no baseline entry" in problems[0]

    def test_zero_baseline_is_compared_not_skipped(self):
        base = _payload(a=_scenario(10.0, 0))
        cur = _payload(a=_scenario(10.0, 50))
        problems = compare_benchmarks(cur, base)
        assert len(problems) == 2
        assert "work changed (0 -> 50)" in problems[0]


def _load_bench_hotpath():
    path = REPO_ROOT / "benchmarks" / "bench_hotpath.py"
    spec = importlib.util.spec_from_file_location("bench_hotpath", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules["bench_hotpath"] = module
    spec.loader.exec_module(module)
    return module


class TestHotpathSuite:
    def test_tiny_suite_runs_and_gates_against_itself(self, tmp_path):
        bench = _load_bench_hotpath()
        payload = bench.run_suite(scale=0.15)
        assert payload["schema"] == BENCH_SCHEMA
        assert set(payload["scenarios"]) >= {
            "join_heavy", "join_arranged_shared", "iterate_heavy",
            "collection_run_wcc", "collection_run_bfs",
            "collection_create"}
        for scenario in payload["scenarios"].values():
            assert scenario["work"] > 0
            assert scenario["score"] > 0
        path = tmp_path / "baseline.json"
        bench_to_json(payload, path)
        # Deterministic metrics: a re-run at the same scale produces the
        # same work counters, so the gate passes against itself however
        # noisy the millisecond-long tiny-scale wall scores are.
        rerun = bench.run_suite(scale=0.15)
        for name, scenario in rerun["scenarios"].items():
            assert scenario["work"] == \
                payload["scenarios"][name]["work"], name
        assert compare_benchmarks(rerun, load_bench_json(path)) == []

    def test_committed_baseline_is_loadable(self):
        baseline = load_bench_json(REPO_ROOT / "BENCH_engine.json")
        assert baseline["suite"] == "hotpath"
        assert baseline["scenarios"]
        assert baseline["backend"] == "inline"
        assert baseline["workers"] == 1

    def test_process_backend_suite_matches_inline(self):
        bench = _load_bench_hotpath()
        from repro.bench.reporting import (
            backend_speedup_rows,
            compare_backend_payloads,
            render_backend_comparison,
        )

        names = ["iterate_heavy", "collection_run_bfs"]
        inline = bench.run_suite(scale=0.15, workers=2, backend="inline",
                                 names=names)
        process = bench.run_suite(scale=0.15, workers=2,
                                  backend="process", names=names)
        assert process["backend"] == "process"
        assert compare_backend_payloads(inline, process) == []
        rows = backend_speedup_rows(inline, process)
        assert [row["scenario"] for row in rows] == names
        rendered = render_backend_comparison(rows)
        assert "speedup" in rendered and "iterate_heavy" in rendered

    def test_backend_comparison_flags_divergence(self):
        from repro.bench.reporting import compare_backend_payloads

        inline = {"scenarios": {
            "a": {"work": 10, "parallel_time": 5, "output_digest": "x"},
            "b": {"work": 7, "parallel_time": 7, "output_digest": "y"}}}
        process = {"scenarios": {
            "a": {"work": 11, "parallel_time": 5, "output_digest": "x"},
            "c": {"work": 1, "parallel_time": 1, "output_digest": "z"}}}
        problems = compare_backend_payloads(inline, process)
        assert any("a: work diverged" in problem for problem in problems)
        assert any("b: missing from the process" in problem
                   for problem in problems)
        assert any("c: missing from the inline" in problem
                   for problem in problems)

    def test_unknown_scenario_rejected(self):
        bench = _load_bench_hotpath()
        from repro.errors import ConfigError

        with pytest.raises(ConfigError, match="unknown scenario"):
            bench.run_suite(scale=0.1, names=["warp_drive"])
