"""Static plan analysis and UDF determinism linting.

``analyze(dataflow)`` runs two read-only passes over a built dataflow —
the plan analyzer (:mod:`repro.analyze.plan`, rules ``GS-P1xx``) and the
UDF linter (:mod:`repro.analyze.udf`, rules ``GS-U2xx``) — and returns an
:class:`AnalysisReport`. Two further passes are opt-in:
``analyze(dataflow, concurrency=True)`` adds the shard-safety pass for
the process backend (:mod:`repro.analyze.shard`, rules ``GS-S3xx``) and
``analyze(dataflow, stream=True)`` adds the stream-maintainability pass
for continuous queries (:mod:`repro.analyze.stream`, rules ``GS-M4xx``).
Strict mode (``Graphsurge.run_analytics(..., strict=True)`` /
``run --strict``) raises :class:`repro.errors.AnalysisError` on any ERROR
finding before the epoch driver runs a single view; strict process-backend
runs include the shard-safety pass, and ``StreamEngine.register`` runs the
stream pass on every continuous query before seeding it.

The full rule catalog (rationale, examples, suppression) is in
``docs/analysis.md``.
"""

from __future__ import annotations

from typing import Dict, Iterable

from repro.analyze.plan import PLAN_RULES, PlanWalk, check_plan
from repro.analyze.report import AnalysisReport, Finding, Rule, Severity
from repro.analyze.shard import SHARD_RULES, check_shard
from repro.analyze.stream import STREAM_RULES, check_stream
from repro.analyze.udf import UDF_RULES, check_udfs

#: Every rule the analyzer knows, by id.
RULES: Dict[str, Rule] = {**PLAN_RULES, **UDF_RULES, **SHARD_RULES,
                          **STREAM_RULES}

__all__ = [
    "AnalysisReport",
    "Finding",
    "Rule",
    "RULES",
    "Severity",
    "analyze",
    "analyze_computation",
]


def analyze(dataflow, ignore: Iterable[str] = (), *,
            concurrency: bool = False,
            stream: bool = False) -> AnalysisReport:
    """Statically analyze a built dataflow.

    Every pass only reads the operator DAG — no traces, schedules, or
    meter state are touched, so a subsequent run's ``total_work`` and
    ``parallel_time`` are byte-identical to an unanalyzed run's.

    ``concurrency`` adds the process-backend shard-safety pass
    (``GS-S3xx``); ``stream`` adds the continuous-query maintainability
    pass (``GS-M4xx``). ``ignore`` drops whole rules by id (the per-line
    escape hatch is a ``# analyze: ignore[rule-id]`` comment in the UDF
    source).
    """
    ignored = set(ignore)
    unknown = ignored.difference(RULES)
    if unknown:
        raise ValueError(
            f"unknown analyzer rule id(s): {', '.join(sorted(unknown))}")
    report = AnalysisReport()
    walk = PlanWalk(dataflow)
    plan_findings, report.operators_scanned = check_plan(dataflow, walk)
    udf_findings, report.udfs_scanned, report.udfs_skipped, \
        report.suppressed = check_udfs(dataflow, walk.path)
    all_findings = plan_findings + udf_findings
    if concurrency:
        shard_findings, _probed = check_shard(dataflow, walk)
        all_findings += shard_findings
    if stream:
        stream_findings, _sites = check_stream(dataflow, walk)
        all_findings += stream_findings
    for finding in all_findings:
        if finding.rule in ignored:
            report.suppressed += 1
        else:
            report.findings.append(finding)
    return report


def analyze_computation(computation, workers: int = 1,
                        ignore: Iterable[str] = (), *,
                        concurrency: bool = False,
                        stream: bool = False) -> AnalysisReport:
    """Build a fresh dataflow for ``computation`` and analyze it.

    Goes through :func:`repro.core.resident.build_plan`, so the analyzed
    plan is exactly the plan a run would execute.
    """
    from repro.core.resident import build_plan

    dataflow, _capture = build_plan(computation, workers=workers)
    return analyze(dataflow, ignore=ignore, concurrency=concurrency,
                   stream=stream)
