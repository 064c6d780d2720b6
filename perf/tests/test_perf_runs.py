"""The command end to end at ``--smoke`` sizes, and what it leaves behind."""

import json
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import batch
import run
import serve
import spans

PERF = Path(__file__).resolve().parent.parent
SPEC = json.loads((PERF.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def smoke(workload: str, trace: int) -> dict:
    """One contract-mode run at smoke sizes; returns its detail file."""
    done = subprocess.run(
        [sys.executable, str(PERF / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace), "--smoke",
         "--reps", "4" if workload == "stream_churn" else "1"],
        stdout=subprocess.PIPE, text=True, timeout=120)
    assert done.returncode == 0, done.stdout
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0
    assert last["attempted"] >= 1
    detail = json.loads(
        (PERF / "out" / f"result-{workload}-seed7-trace{trace}.json")
        .read_text())
    assert detail["metrics"] == last["metrics"]
    assert detail["overrides"]["smoke"] is True and detail["claim"] is None
    return detail


def test_spec_names_are_well_formed_and_unique():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += WORKLOADS
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert any(m["name"] == "setup_s" and m["unit"] == "s"
               and m["better"] == "lower" for m in SPEC["end_to_end"])
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    assert all(len(w["why"]) <= 200 for w in SPEC["workloads"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_end_to_end_metric_is_measured_and_never_zero(workload):
    detail = smoke(workload, 0)
    wanted = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert set(detail["measured"]) == set(wanted)
    for name, metric in detail["metrics"].items():
        assert metric["unit"] == wanted[name]
        assert metric["value"] > 0


def test_every_per_layer_metric_is_measured_by_some_workload():
    measured = set()
    for workload in WORKLOADS:
        detail = smoke(workload, 1)
        assert detail["span_problems"] == [] and detail["void"] == []
        assert set(detail["metrics"]) == {m["name"]
                                          for m in SPEC["per_layer"]}
        measured |= set(detail["measured"])
        trace = json.loads(
            (PERF / "out" / f"trace-{workload}.json").read_text())
        assert trace and spans.check_tree(trace) == []
        roots = [s for s in trace if s["parent"] is None]
        assert len(roots) == len({s["run_id"] for s in trace})
    assert measured == {m["name"] for m in SPEC["per_layer"]}


@pytest.mark.parametrize("workload", run.BATCH)
def test_traced_pipeline_reproduces_the_facade(workload, tmp_path):
    cfg = batch.config(workload, smoke=True)
    plain = batch.rep(cfg, 3, tmp_path, spans.Tracer(False))
    traced = batch.traced_rep(cfg, 3, tmp_path, spans.Tracer())
    assert traced["void"] is None and traced["failed"] == 0
    for key in ("total_work", "total_parallel_time", "split_points",
                "output_digest"):
        assert traced["counts"][key] == plain["counts"][key]
    assert traced["digest"] == plain["digest"]
    assert traced["counts"]["coverage"] >= 0.9


def test_temp_dir_is_removed_when_a_workload_raises(monkeypatch):
    def explode(*_args):
        raise RuntimeError("boom")

    fake = SimpleNamespace(config=lambda *_: {}, rep=explode, MIN_REPS=1)
    monkeypatch.setattr(run, "driver", lambda _workload: fake)
    args = SimpleNamespace(workload="x", smoke=True, trace=0, seconds=1.0,
                           reps=1, seed=1)
    before = set(run.OUT.glob("tmp-*")) if run.OUT.exists() else set()
    with pytest.raises(RuntimeError, match="boom"):
        run.measure(args)
    assert set(run.OUT.glob("tmp-*")) == before


def test_daemon_is_reaped_when_a_rep_raises(monkeypatch, tmp_path):
    booted = []

    class Recorded(serve.Daemon):
        def __init__(self, *args):
            super().__init__(*args)
            booted.append(self)

    def explode(*_args):
        raise RuntimeError("boom")

    monkeypatch.setattr(serve, "Daemon", Recorded)
    monkeypatch.setattr(serve, "classify", explode)
    with pytest.raises(RuntimeError, match="boom"):
        serve.rep(serve.config("serve_mixed", True), 3, tmp_path,
                  spans.Tracer(False))
    assert len(booted) == 1
    assert booted[0].process.poll() is not None
