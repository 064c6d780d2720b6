"""Render experiment results to Markdown, CSV, and JSON.

Used by ``python -m repro.bench <exp> --save DIR`` to archive runs, and
handy for comparing against the records in EXPERIMENTS.md. The JSON
helpers back the hot-path benchmark-regression gate
(``benchmarks/bench_hotpath.py`` against the committed
``BENCH_engine.json`` baseline).
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Dict, Iterable, List, Sequence, Union

from repro.bench.harness import ExperimentResult

PathLike = Union[str, Path]

_FIELDS = ["experiment", "dataset", "algorithm", "config", "mode",
           "num_views", "wall_seconds", "work", "parallel_time", "splits"]


def to_csv(rows: Iterable[ExperimentResult], path: PathLike) -> None:
    """Write rows as CSV."""
    rows = list(rows)
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(_FIELDS)
        for row in rows:
            writer.writerow([getattr(row, field) for field in _FIELDS])


def to_markdown(rows: Iterable[ExperimentResult],
                title: str = "") -> str:
    """Render rows as a GitHub-flavoured Markdown table."""
    rows = list(rows)
    lines: List[str] = []
    if title:
        lines.append(f"### {title}")
        lines.append("")
    lines.append("| " + " | ".join(_FIELDS) + " |")
    lines.append("|" + "|".join("---" for _ in _FIELDS) + "|")
    for row in rows:
        cells = []
        for field in _FIELDS:
            value = getattr(row, field)
            if isinstance(value, float):
                cells.append(f"{value:.2f}")
            else:
                cells.append(str(value))
        lines.append("| " + " | ".join(cells) + " |")
    return "\n".join(lines)


def save_report(rows: Iterable[ExperimentResult], directory: PathLike,
                name: str) -> None:
    """Write both CSV and Markdown for an experiment's rows."""
    rows = list(rows)
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    to_csv(rows, directory / f"{name}.csv")
    (directory / f"{name}.md").write_text(
        to_markdown(rows, title=name) + "\n")


# -- benchmark-baseline JSON (the hot-path regression gate) -------------------

#: Schema version of the benchmark-baseline files. Bump when the payload
#: layout changes incompatibly; the gate refuses to compare across versions.
BENCH_SCHEMA = 1


def bench_to_json(payload: Dict[str, object], path: PathLike) -> None:
    """Write a benchmark payload (see :func:`compare_benchmarks`) as JSON.

    The payload is produced by ``benchmarks/bench_hotpath.py`` and looks
    like::

        {"suite": "hotpath", "schema": 1, "calibration_seconds": 0.12,
         "backend": "inline", "workers": 1,
         "scenarios": {"join_heavy": {"wall_seconds": ..., "score": ...,
                                      "work": ..., "parallel_time": ...}}}

    ``backend``/``workers`` record the execution configuration of the
    run; the regression gate compares only per-scenario ``work`` and
    ``parallel_time``, so baselines written before those fields existed
    still load and compare.

    The write is atomic (temp file + ``os.replace``), so a crash or an
    interrupted ``--update-baseline`` run never leaves a torn baseline
    behind for the gate to choke on.
    """
    from repro.core.persistence import atomic_write_text

    atomic_write_text(
        Path(path), json.dumps(payload, indent=2, sort_keys=True) + "\n")


def load_bench_json(path: PathLike) -> Dict[str, object]:
    """Load a benchmark baseline written by :func:`bench_to_json`."""
    with open(path) as handle:
        payload = json.load(handle)
    schema = payload.get("schema")
    if schema != BENCH_SCHEMA:
        raise ValueError(
            f"benchmark baseline {path} has schema {schema!r}; "
            f"this build reads schema {BENCH_SCHEMA}")
    return payload


def compare_benchmarks(current: Dict[str, object],
                       baseline: Dict[str, object]) -> List[str]:
    """Compare a benchmark run against a baseline; return problems.

    The deterministic cost counters (``work``, ``parallel_time``) must
    equal the baseline exactly: they do not depend on the host, so any
    difference — up or down — is a change to the engine, and a deliberate
    one re-records the baseline in its own commit. Wall clock
    (``wall_seconds`` and the calibration-normalized ``score``) is
    reported by the suite but not gated: on shared CI hosts it moves by
    more than any bound worth enforcing.

    Missing scenarios are problems too — a gate that silently stops
    measuring is not a gate — and so are scenarios present in the current
    run but absent from the baseline: an unbaselined scenario is
    unguarded until someone re-records the baseline, and the gate must
    say so rather than silently pass it. Returns human-readable problem
    messages (empty = pass).
    """
    problems: List[str] = []
    base_scenarios = baseline.get("scenarios", {})
    cur_scenarios = current.get("scenarios", {})
    for name, base in sorted(base_scenarios.items()):
        cur = cur_scenarios.get(name)
        if cur is None:
            problems.append(f"{name}: scenario missing from current run")
            continue
        for metric in ("work", "parallel_time"):
            if metric in base and cur.get(metric) != base[metric]:
                problems.append(
                    f"{name}: {metric} changed ({base[metric]} -> "
                    f"{cur.get(metric)}); the counter is deterministic, "
                    f"so re-record the baseline if this is deliberate")
    for name in sorted(set(cur_scenarios) - set(base_scenarios)):
        problems.append(
            f"{name}: scenario has no baseline entry — run "
            f"--update-baseline to start gating it")
    return problems


# -- backend comparison (the parallel-smoke gate) -----------------------------


def compare_backend_payloads(inline_payload: Dict[str, object],
                             process_payload: Dict[str, object]
                             ) -> List[str]:
    """Check two same-workload runs for backend observational equality.

    The process backend's contract (``docs/parallel.md``) is that moving
    worker shards onto real OS processes changes wall clock only: the
    metered ``work`` and ``parallel_time`` counters and the canonical
    output digest of every scenario must be byte-identical to the inline
    run. Returns human-readable violations (empty = equal).
    """
    problems: List[str] = []
    inline_scenarios = inline_payload.get("scenarios", {})
    process_scenarios = process_payload.get("scenarios", {})
    for name in sorted(set(inline_scenarios) | set(process_scenarios)):
        inline_row = inline_scenarios.get(name)
        process_row = process_scenarios.get(name)
        if inline_row is None or process_row is None:
            missing = "inline" if inline_row is None else "process"
            problems.append(f"{name}: missing from the {missing} run")
            continue
        for metric in ("work", "parallel_time", "output_digest"):
            inline_value = inline_row.get(metric)
            process_value = process_row.get(metric)
            if inline_value != process_value:
                problems.append(
                    f"{name}: {metric} diverged between backends "
                    f"(inline {inline_value!r} != process "
                    f"{process_value!r})")
    return problems


def backend_speedup_rows(inline_payload: Dict[str, object],
                         process_payload: Dict[str, object]
                         ) -> List[Dict[str, object]]:
    """Per-scenario wall-clock speedup rows: inline wall / process wall."""
    rows: List[Dict[str, object]] = []
    inline_scenarios = inline_payload.get("scenarios", {})
    process_scenarios = process_payload.get("scenarios", {})
    for name, inline_row in inline_scenarios.items():
        process_row = process_scenarios.get(name)
        if process_row is None:
            continue
        inline_wall = float(inline_row.get("wall_seconds", 0.0))
        process_wall = float(process_row.get("wall_seconds", 0.0))
        speedup = (inline_wall / process_wall
                   if process_wall > 1e-9 else float("inf"))
        rows.append({
            "scenario": name,
            "inline_wall": inline_wall,
            "process_wall": process_wall,
            "speedup": round(speedup, 2),
        })
    return rows


def render_backend_comparison(rows: Sequence[Dict[str, object]]) -> str:
    """ASCII table of the backend comparison, with a speedup column."""
    lines = [f"{'scenario':<24} {'inline(s)':>10} {'process(s)':>11} "
             f"{'speedup':>8}"]
    for row in rows:
        lines.append(
            f"{row['scenario']:<24} {row['inline_wall']:>10.3f} "
            f"{row['process_wall']:>11.3f} {row['speedup']:>7.2f}x")
    return "\n".join(lines)
