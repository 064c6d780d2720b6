"""Command-line interface to a Graphsurge session.

The paper's users load graphs, run GVDL statements, and invoke analytics
computations from a command line; this module provides the same workflow::

    # load a graph, create views/collections, run a computation
    python -m repro.cli \
        --load Calls=nodes.csv,edges.csv \
        --gvdl script.gvdl \
        run wcc call-analysis --mode adaptive --out results.csv

Subcommands:

* ``gvdl``  — execute GVDL statements (from --gvdl files or --execute text)
  and report what was created.
* ``run``   — run a named computation on a graph, view, or collection.
* ``profile`` — run a computation traced and print the per-view
  critical-path report (``--trace-out`` writes a Chrome trace-event JSON
  loadable at chrome://tracing; see docs/observability.md).
* ``info``  — describe the session's graphs, views, and collections.
* ``fuzz``  — differential-oracle fuzzing: randomized view collections
  cross-checked against scratch recomputation and the metamorphic
  invariants (see docs/verification.md). ``--replay FILE`` re-runs a
  previously written repro file.
* ``serve`` — run the always-on analytics daemon: one resident session
  answers GVDL and analytics requests over HTTP with a result cache,
  admission control, circuit breakers, per-request deadlines, and
  graceful checkpointing shutdown (see docs/serving.md).
* ``analyze`` — static plan analysis + UDF determinism linting over the
  built-in algorithms (and ``--generated N`` fuzzer-derived plans)
  without executing anything; exits 1 on any ERROR finding (see
  docs/analysis.md). ``--concurrency`` adds the shard-safety pass
  (GS-S3xx), ``--stream`` the stream-maintainability pass (GS-M4xx),
  ``--strict-warnings`` also fails on WARNING findings. ``run --strict``
  applies the same check before executing; ``run --sanitize`` (process
  backend) shadow-executes every epoch inline and fails at the first
  divergence.

Computations: every name and alias in the name table,
:mod:`repro.algorithms.registry` (see docs/algorithms.md), configured by
flags like ``--source``/``--iterations``/``--seeds``.
"""

from __future__ import annotations

import argparse
import csv
import re
import sys
from pathlib import Path
from typing import List, Optional

from repro.algorithms import registry
from repro.core.computation import GraphComputation
from repro.core.executor import CollectionRunResult, ExecutionMode
from repro.core.system import Graphsurge
from repro.errors import GraphsurgeError
from repro.stream.engine import COMPACT_EVERY, KEEP_EPOCHS
from repro.timely.worker import canonical_order_key


def build_computation(name: str, args: argparse.Namespace) -> GraphComputation:
    """Instantiate a computation by CLI name: flags → params → the table."""
    return registry.build_computation(name, registry.flag_params(vars(args)))


def table_help(param: str, what: str) -> str:
    """Flag help naming each computation that takes ``param`` with its
    default in the name table, e.g. ``k for kcore (default 2), ktruss
    (default 3)``; an omitted flag leaves that default to the table."""
    return f"{what} for " + ", ".join(
        f"{entry.name} (default {entry.params[param]})"
        for entry in registry.ALGORITHMS.values() if param in entry.params)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="Graphsurge command line")
    parser.add_argument(
        "--load", action="append", default=[], metavar="NAME=NODES,EDGES",
        help="load a base graph from CSV files (repeatable)")
    parser.add_argument(
        "--gvdl", action="append", default=[], metavar="FILE",
        help="execute GVDL statements from a file (repeatable)")
    parser.add_argument(
        "--execute", action="append", default=[], metavar="TEXT",
        help="execute GVDL statements given inline (repeatable)")
    parser.add_argument(
        "--workers", type=int, default=1,
        help="simulated worker count (default 1)")
    parser.add_argument(
        "--backend", default="inline", choices=["inline", "process"],
        help="execution backend: inline runs all shards in this "
             "process; process forks one OS worker per shard "
             "(see docs/parallel.md; default inline)")
    parser.add_argument(
        "--order-collections", default="identity",
        choices=["identity", "christofides", "greedy", "random"],
        help="collection ordering method (default identity)")
    parser.add_argument(
        "--weight-property", default=None,
        help="edge property to use as weight for analytics")

    subcommands = parser.add_subparsers(dest="command")

    info = subcommands.add_parser("info", help="describe the session")
    del info

    def add_computation_args(sub) -> None:
        sub.add_argument("computation",
                         help="|".join(sorted(registry.ALGORITHMS)))
        sub.add_argument("target", help="graph, view, or collection name")
        sub.add_argument("--mode", default=None,
                         choices=[m.value for m in ExecutionMode],
                         help="execution policy of a collection run "
                              "(default adaptive)")
        sub.add_argument("--batch-size", type=int, default=None,
                         help="adaptive splitting batch size of a "
                              "collection run (default 10)")
        sub.add_argument("--source", type=int, default=None,
                         help="source vertex for bfs/bf")
        sub.add_argument("--iterations", type=int,
                         help=table_help("iterations", "iterations"))
        sub.add_argument("--k", type=int, help=table_help("k", "k"))
        sub.add_argument("--pairs", default=None,
                         help="mpsp pairs, e.g. --pairs 1:5,1:9 or "
                              "1-5;1-9")
        sub.add_argument("--seeds", default=None,
                         help="ppr seed vertices, e.g. --seeds 1,5 or "
                              "1;5")
        sub.add_argument("--rounds", type=int,
                         help=table_help("rounds", "synchronous rounds"))
        sub.add_argument("--degree-weight", type=int,
                         help=table_help("degree_weight",
                                         "weight on out-degree"))
        sub.add_argument("--triangle-weight", type=int,
                         help=table_help("triangle_weight",
                                         "weight on triangle count"))
        sub.add_argument("--rank-weight", type=int,
                         help=table_help("rank_weight",
                                         "weight on centi-PageRank"))

    run = subcommands.add_parser("run", help="run a computation")
    add_computation_args(run)
    run.add_argument("--out", default=None, metavar="FILE",
                     help="write per-view results to a CSV file")
    run.add_argument("--trace-out", default=None, metavar="FILE",
                     help="trace the run and write a Chrome trace-event "
                          "JSON (load at chrome://tracing)")
    run.add_argument("--checkpoint", default=None, metavar="FILE",
                     help="journal each completed view to a resumable "
                          "checkpoint file")
    run.add_argument("--resume", action="store_true",
                     help="resume an interrupted collection run from the "
                          "--checkpoint file")
    run.add_argument("--max-wall-seconds", type=float, default=None,
                     help="abort (with partial progress) past this wall "
                          "time")
    run.add_argument("--max-work", type=int, default=None,
                     help="abort (with partial progress) past this many "
                          "work units")
    run.add_argument("--max-iterations", type=int, default=None,
                     help="abort a fixed point past this many iterations")
    run.add_argument("--retries", type=int, default=0,
                     help="per-view retries; a repeatedly failing "
                          "differential view degrades to scratch "
                          "(default 0 = fail fast)")
    run.add_argument("--retry-backoff", type=float, default=0.5,
                     help="seconds before the first retry, doubled each "
                          "further retry (default 0.5)")
    run.add_argument("--strict", action="store_true",
                     help="statically analyze the plan at build time and "
                          "refuse to run on any ERROR finding (see "
                          "docs/analysis.md); on --backend process this "
                          "includes the shard-safety pass")
    run.add_argument("--sanitize", action="store_true",
                     help="shadow-execute every epoch on an inline twin "
                          "and fail at the first divergent (operator, "
                          "timestamp, shard); requires --backend process "
                          "(see docs/parallel.md)")

    profile = subcommands.add_parser(
        "profile", help="run a computation traced; print the per-view "
                        "critical-path report")
    add_computation_args(profile)
    profile.add_argument("--trace-out", default=None, metavar="FILE",
                         help="also write a Chrome trace-event JSON "
                              "(load at chrome://tracing)")
    profile.add_argument("--top", type=int, default=3,
                         help="critical-path contributors shown per view "
                              "(default 3)")
    profile.add_argument("--flame-top", type=int, default=10,
                         help="operators shown in the work rollup "
                              "(default 10)")

    gvdl = subcommands.add_parser(
        "gvdl", help="only execute the --gvdl/--execute statements")
    del gvdl

    analyze = subcommands.add_parser(
        "analyze", help="statically analyze computation plans and their "
                        "UDFs without running anything (docs/analysis.md)")
    analyze.add_argument(
        "computations", nargs="*", metavar="NAME",
        help="algorithm names to analyze (default: every built-in "
             "algorithm)")
    analyze.add_argument("--seed", type=int, default=0,
                         help="seed for sampled parameters and generated "
                              "plans (default 0)")
    analyze.add_argument("--generated", type=int, default=0, metavar="N",
                         help="also analyze N fuzzer-generated plans from "
                              "repro.verify.generator (default 0)")
    analyze.add_argument("--json", default=None, metavar="FILE",
                         help="write the full report as JSON")
    analyze.add_argument("--quiet", action="store_true",
                         help="print only per-plan verdict lines and the "
                              "summary")
    analyze.add_argument("--concurrency", action="store_true",
                         help="also run the shard-safety pass (GS-S3xx: "
                              "process-backend hazards — unpicklable "
                              "captures, cross-process state, unstable "
                              "hash keys)")
    analyze.add_argument("--stream", action="store_true",
                         help="also run the stream-maintainability pass "
                              "(GS-M4xx: retraction and compaction "
                              "hazards for continuous queries)")
    analyze.add_argument("--strict-warnings", action="store_true",
                         help="exit non-zero on WARNING findings too, "
                              "not just ERROR")

    serve = subcommands.add_parser(
        "serve", help="run the always-on analytics daemon: resident "
                      "session state, result cache, request hardening "
                      "(see docs/serving.md)")
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8850,
                       help="TCP port; 0 picks an ephemeral port "
                            "(default 8850)")
    serve.add_argument("--max-inflight", type=int, default=4,
                       help="concurrently executing requests "
                            "(default 4)")
    serve.add_argument("--max-queue", type=int, default=16,
                       help="requests allowed to wait for admission; "
                            "past this they are shed with 429 "
                            "(default 16)")
    serve.add_argument("--deadline", type=float, default=None,
                       metavar="SECONDS",
                       help="per-request wall-clock budget; exhaustion "
                            "answers 503 (default: none)")
    serve.add_argument("--max-work", type=int, default=None,
                       help="per-request work-unit budget (default: none)")
    serve.add_argument("--checkpoint", default=None, metavar="FILE",
                       help="session journal: restored on boot, written "
                            "on graceful shutdown")
    serve.add_argument("--retries", type=int, default=1,
                       help="recompute retries before degrading to a "
                            "stale cached result (default 1)")
    serve.add_argument("--retry-backoff", type=float, default=0.05,
                       help="base backoff seconds, doubled per retry "
                            "(default 0.05)")
    serve.add_argument("--breaker-threshold", type=int, default=3,
                       help="consecutive failures that open an "
                            "algorithm's circuit breaker (default 3)")
    serve.add_argument("--breaker-reset", type=float, default=30.0,
                       metavar="SECONDS",
                       help="seconds an open breaker waits before "
                            "half-opening (default 30)")
    serve.add_argument("--cache-capacity", type=int, default=256,
                       help="result cache entries (default 256)")
    serve.add_argument("--drain-timeout", type=float, default=10.0,
                       help="seconds to wait for in-flight requests on "
                            "shutdown (default 10)")
    serve.add_argument("--workers", type=int, default=None,
                       dest="serve_workers", metavar="N",
                       help="worker count for resident dataflows "
                            "(overrides the global --workers)")
    serve.add_argument("--backend", default=None, dest="serve_backend",
                       choices=["inline", "process"],
                       help="execution backend for resident dataflows "
                            "(overrides the global --backend; see "
                            "docs/parallel.md)")

    stream = subcommands.add_parser(
        "stream", help="stream edge batches into continuously maintained "
                       "queries; closed history folds every "
                       f"{COMPACT_EVERY} epochs, keeping the last "
                       f"{KEEP_EPOCHS} exact (see docs/streaming.md)")
    stream.add_argument(
        "queries", nargs="+", metavar="QUERY",
        help="computations to maintain, as NAME or NAME:key=value,... "
             "e.g. wcc, bfs:source=3, pagerank:iterations=5, "
             "mpsp:pairs=1-4;2-5 or mpsp:pairs=1:4,2:5, ppr:seeds=1;5 "
             "or ppr:seeds=1,5 (ignored with --resume: "
             "the journal header pins the queries)")
    stream.add_argument("--target", default=None,
                        help="loaded graph or view; seeds the stream "
                             "for the churn source, is replayed edge by "
                             "edge for the replay source (default: "
                             "start empty)")
    stream.add_argument("--stream-source", default="churn",
                        choices=["churn", "replay"],
                        help="batch source: seeded random churn, or "
                             "temporal replay of --target's edges "
                             "(default churn)")
    stream.add_argument("--epochs", type=int, default=20,
                        help="batches to ingest (default 20)")
    stream.add_argument("--seed", type=int, default=0,
                        help="churn source seed (default 0)")
    stream.add_argument("--nodes", type=int, default=12,
                        help="churn source vertex-id space (default 12)")
    stream.add_argument("--churn", type=int, default=4,
                        help="max appends and max retracts per churn "
                             "batch (default 4)")
    stream.add_argument("--ts-property", default="ts",
                        help="edge property ordering the replay source "
                             "(default ts)")
    stream.add_argument("--window", type=int, default=None, metavar="N",
                        help="sliding window: each batch also retracts "
                             "what arrived N batches ago (append-only "
                             "sources, i.e. replay)")
    stream.add_argument("--journal", default=None, metavar="FILE",
                        help="journal every ingested batch for resume")
    stream.add_argument("--resume", action="store_true",
                        help="replay the --journal file first, then "
                             "continue the source from where it left "
                             "off (pass the same source flags; for the "
                             "replay source --epochs fixes the batch "
                             "partition and must match the first run)")
    stream.add_argument("--snapshot", action="store_true",
                        help="print each query's full result after the "
                             "final epoch")
    stream.add_argument("--out", default=None, metavar="FILE",
                        help="write per-epoch meter rows to a CSV file")

    fuzz = subcommands.add_parser(
        "fuzz", help="fuzz randomized view collections against the "
                     "plain-Python oracles and metamorphic invariants")
    fuzz.add_argument("--seed", type=int, default=0,
                      help="campaign seed; fixes every generated case and "
                           "sampled parameter (default 0)")
    fuzz.add_argument("--iterations", type=int, default=20,
                      help="number of generated collections (default 20)")
    fuzz.add_argument("--algorithms", default=None,
                      help="comma-separated algorithm names (default: all "
                           "oracle-backed algorithms)")
    fuzz.add_argument("--repro-out", default="fuzz-repro.json",
                      metavar="FILE",
                      help="where a failure's shrunk repro is written "
                           "(default fuzz-repro.json)")
    fuzz.add_argument("--kinds", default=None,
                      help="comma-separated generator kinds: "
                           "churn,window,gvdl (default: all)")
    fuzz.add_argument("--keep-going", action="store_true",
                      help="keep fuzzing after a mismatch instead of "
                           "stopping at the first failure")
    fuzz.add_argument("--quiet", action="store_true",
                      help="only print the final summary line")
    fuzz.add_argument("--replay", default=None, metavar="FILE",
                      help="re-run a previously written repro file instead "
                           "of fuzzing")
    return parser


def _setup_session(args: argparse.Namespace) -> Graphsurge:
    session = Graphsurge(workers=args.workers,
                         order_collections=args.order_collections,
                         weight_property=args.weight_property,
                         backend=args.backend)
    for spec in args.load:
        name, _, files = spec.partition("=")
        nodes_path, _, edges_path = files.partition(",")
        if not (name and nodes_path and edges_path):
            raise GraphsurgeError(
                f"--load expects NAME=NODES,EDGES, got {spec!r}")
        session.load_graph(name, nodes_path, edges_path)
        print(f"loaded graph {name}")
    for path in args.gvdl:
        created = session.execute(Path(path).read_text())
        for name in created:
            print(f"created {name}")
    for text in args.execute:
        created = session.execute(text)
        for name in created:
            print(f"created {name}")
    return session


def _print_info(session: Graphsurge) -> None:
    print("graphs:")
    for name in session.graphs.names():
        print(f"  {name}: {session.graphs.get(name)!r}")
    print("views:")
    for name in session.views.view_names():
        print(f"  {name}: {session.views.get_view(name)!r}")
    print("collections:")
    for name in session.views.collection_names():
        collection = session.views.get_collection(name)
        print(f"  {name}: {collection.num_views} views, "
              f"{collection.total_diffs} total diffs")


def _write_collection_csv(result: CollectionRunResult, path: str) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["view", "vertex", "value"])
        for view_result in result.views:
            if view_result.output is None:
                continue
            for (vertex, value), mult in sorted(
                    view_result.output.items(),
                    key=lambda item: canonical_order_key(item[0])):
                for _ in range(mult):
                    writer.writerow([view_result.view_name, vertex, value])


def _build_resilience(args: argparse.Namespace):
    """Budget / retry policy / checkpoint options from CLI flags."""
    from repro.core.resilience import RetryPolicy, RunBudget

    budget = None
    if (args.max_wall_seconds is not None or args.max_work is not None
            or args.max_iterations is not None):
        budget = RunBudget(max_wall_seconds=args.max_wall_seconds,
                           max_work=args.max_work,
                           max_iterations=args.max_iterations)
    retry_policy = None
    if args.retries > 0:
        retry_policy = RetryPolicy(max_retries=args.retries,
                                   backoff_seconds=args.retry_backoff)
    resume_from = args.checkpoint if args.resume else None
    if args.resume and args.checkpoint is None:
        raise GraphsurgeError("--resume requires --checkpoint FILE")
    return budget, retry_policy, args.checkpoint, resume_from


def _mode(args: argparse.Namespace) -> Optional[ExecutionMode]:
    return None if args.mode is None else ExecutionMode(args.mode)


def _run(session: Graphsurge, args: argparse.Namespace) -> None:
    computation = build_computation(args.computation, args)
    budget, retry_policy, checkpoint_path, resume_from = \
        _build_resilience(args)
    tracer = None
    if args.trace_out:
        from repro.observe import TraceSink

        tracer = TraceSink(session.workers)
    result = session.run_analytics(
        computation, args.target, mode=_mode(args),
        batch_size=args.batch_size, keep_outputs=bool(args.out),
        checkpoint_path=checkpoint_path, resume_from=resume_from,
        budget=budget, retry_policy=retry_policy, tracer=tracer,
        strict=args.strict, sanitize=args.sanitize)
    if isinstance(result, CollectionRunResult):
        resumed = (f", resumed at view {result.resumed_views}"
                   if result.resumed_views else "")
        print(f"{computation.name} on collection {args.target}: "
              f"{len(result.views)} views in "
              f"{result.total_wall_seconds:.2f}s "
              f"({result.total_work} work units, "
              f"splits at {result.split_points}{resumed})")
        for view_result in result.views:
            notes = ""
            if view_result.degraded:
                notes = "  [degraded to scratch after "
                notes += f"{len(view_result.failures)} failure(s)]"
            elif view_result.failures:
                notes = f"  [{len(view_result.failures)} retried failure(s)]"
            print(f"  {view_result.view_name:>12} "
                  f"{view_result.strategy.value:>12} "
                  f"{view_result.wall_seconds:>8.3f}s "
                  f"{view_result.work:>10} work{notes}")
        if args.out:
            _write_collection_csv(result, args.out)
            print(f"wrote {args.out}")
    else:
        print(f"{computation.name} on {args.target}: "
              f"{result.output_diff_size} result records in "
              f"{result.wall_seconds:.2f}s ({result.work} work units)")
        if args.out:
            with open(args.out, "w", newline="") as handle:
                writer = csv.writer(handle)
                writer.writerow(["vertex", "value"])
                for (vertex, value), _mult in sorted(
                        result.output.items(),
                        key=lambda item: canonical_order_key(item[0])):
                    writer.writerow([vertex, value])
            print(f"wrote {args.out}")
    if tracer is not None:
        from repro.observe import write_chrome_trace

        write_chrome_trace(tracer.steps, args.trace_out,
                           workers=tracer.workers)
        print(f"wrote Chrome trace to {args.trace_out} "
              f"({len(tracer.steps)} steps, {tracer.total_units} units)")


def _profile(session: Graphsurge, args: argparse.Namespace) -> None:
    computation = build_computation(args.computation, args)
    report = session.profile(
        computation, args.target, mode=_mode(args),
        batch_size=args.batch_size, trace_out=args.trace_out)
    print(report.render(top=args.top, flame_top=args.flame_top))
    if args.trace_out:
        print(f"wrote Chrome trace to {args.trace_out} "
              f"({len(report.sink.steps)} steps, "
              f"{report.sink.total_units} units)")


def _analyze(args: argparse.Namespace) -> int:
    from repro.analyze.corpus import default_computations, \
        generated_computations
    from repro.analyze import analyze_computation

    plans = default_computations(args.seed)
    if args.computations:
        known = {label for label, _ in plans}
        wanted = [registry.canonical_name(name) or name.lower()
                  for name in args.computations]
        unknown = [name for name in wanted if name not in known]
        if unknown:
            raise GraphsurgeError(
                f"unknown computation(s): {', '.join(unknown)}; "
                f"expected names from: {', '.join(sorted(known))}")
        plans = [(label, comp) for label, comp in plans if label in wanted]
    if args.generated > 0:
        plans = plans + list(
            generated_computations(args.seed, args.generated))
    reports = {}
    errors = warnings = 0
    for label, computation in plans:
        report = analyze_computation(computation, workers=args.workers,
                                     concurrency=args.concurrency,
                                     stream=args.stream)
        reports[label] = report
        errors += len(report.errors())
        warnings += len(report.warnings())
        verdict = "clean" if not report.findings else \
            f"{len(report.errors())} error(s), " \
            f"{len(report.warnings())} warning(s)"
        print(f"{label}: {verdict} ({report.operators_scanned} operators, "
              f"{report.udfs_scanned} UDFs"
              + (f", {report.suppressed} suppressed"
                 if report.suppressed else "") + ")")
        if report.findings and not args.quiet:
            for finding in report.sorted_findings():
                print("  " + finding.render().replace("\n", "\n  "))
    print(f"analyzed {len(plans)} plan(s): {errors} error(s), "
          f"{warnings} warning(s)")
    if args.json:
        import json

        payload = {label: report.to_dict()
                   for label, report in reports.items()}
        Path(args.json).write_text(json.dumps(payload, indent=1,
                                              sort_keys=True))
        print(f"wrote {args.json}")
    if errors:
        return 1
    return 1 if args.strict_warnings and warnings else 0


def _serve(session: Graphsurge, args: argparse.Namespace) -> int:
    import asyncio

    from repro.core.resilience import RetryPolicy
    from repro.serve import (
        AdmissionController,
        BreakerBoard,
        ResultCache,
        ServeApp,
        ServeSession,
        run_server,
    )

    serve_session = ServeSession(system=session)
    retry_policy = None
    if args.retries > 0:
        retry_policy = RetryPolicy(max_retries=args.retries,
                                   backoff_seconds=args.retry_backoff)
    app = ServeApp(
        serve_session,
        cache=ResultCache(capacity=args.cache_capacity),
        admission=AdmissionController(max_inflight=args.max_inflight,
                                      max_queue=args.max_queue),
        breakers=BreakerBoard(failure_threshold=args.breaker_threshold,
                              reset_seconds=args.breaker_reset),
        retry_policy=retry_policy,
        deadline_seconds=args.deadline,
        max_work=args.max_work,
    )
    asyncio.run(run_server(app, host=args.host, port=args.port,
                           checkpoint_path=args.checkpoint,
                           drain_timeout=args.drain_timeout))
    return 0


def _parse_stream_queries(items: List[str]) -> List[tuple]:
    """``NAME`` or ``NAME:key=value,...`` → (name, {key: value text}); a
    comma starts a parameter only before ``key=``, so ``pairs=1:4,2:5``
    stays whole for the table to parse."""
    queries = []
    for text in items:
        name, _, rest = text.partition(":")
        parts = re.split(r",(?=\w+=)", rest) if rest else []
        for part in parts:
            if "=" not in part:
                raise GraphsurgeError(
                    f"stream query parameter {part!r} must be key=value")
        queries.append((name, dict(part.split("=", 1) for part in parts)))
    return queries


def _stream_cmd(session: Graphsurge, args: argparse.Namespace) -> int:
    from repro.stream import (
        StreamEngine,
        churn_batches,
        replay_batches,
        sliding_batches,
    )

    queries = _parse_stream_queries(args.queries)
    if args.stream_source == "replay" and not args.target:
        raise GraphsurgeError("--stream-source replay requires --target")
    if args.resume:
        if not args.journal:
            raise GraphsurgeError("--resume requires --journal FILE")
        # For the replay source the journaled engine started empty; for
        # churn it started from the target's edges — mirror that here.
        graph = (session.resolve(args.target)
                 if args.target and args.stream_source != "replay"
                 else None)
        engine = StreamEngine.resume(args.journal, graph=graph)
        print(f"resumed stream at epoch {engine.epoch} "
              f"from {args.journal}")
    else:
        seed_target = (None if args.stream_source == "replay"
                       else args.target)
        engine = session.stream(seed_target, queries,
                                journal_path=args.journal)
    if args.stream_source == "replay":
        batches = replay_batches(session.resolve(args.target),
                                 prop=args.ts_property,
                                 num_batches=args.epochs,
                                 weight=session.weight_property)
    else:
        batches = churn_batches(args.seed, args.epochs,
                                num_nodes=args.nodes, churn=args.churn)
    if args.window is not None:
        batches = sliding_batches(batches, args.window)
    short = {signature: query.name
             for signature, query in engine.queries.items()}
    try:
        for batch in batches[engine.epoch:]:
            payload = engine.ingest(batch)
            parts = [f"epoch {payload['epoch']:>4}: "
                     f"+{len(batch.appends)} -{len(batch.retracts)}"]
            for signature in sorted(payload["results"]):
                row = payload["results"][signature]
                parts.append(f"{short[signature]} Δ"
                             f"{len(row['output_delta'])} "
                             f"work {row['work']}")
            print("  ".join(parts))
        summary = engine.meter.summary()
        print(f"streamed {summary['epochs']} epoch(s): "
              f"{summary['total_work']} work units, max epoch "
              f"{summary['max_epoch_work']}, "
              f"{summary['total_latency_s']:.3f}s compute")
        if args.snapshot:
            for signature in sorted(engine.queries):
                output = engine.snapshot(signature)
                print(f"{short[signature]} @ epoch {engine.epoch}:")
                for (vertex, value), mult in sorted(
                        output.items(),
                        key=lambda item: canonical_order_key(item[0])):
                    print(f"  {vertex} {value}"
                          + (f" x{mult}" if mult != 1 else ""))
        if args.out:
            with open(args.out, "w", newline="") as handle:
                writer = csv.writer(handle)
                writer.writerow(["epoch", "query", "batch_size",
                                 "delta_records", "output_delta_size",
                                 "work", "parallel_time", "latency_s"])
                for row in engine.meter.rows():
                    writer.writerow([
                        row["epoch"], short.get(row["query"],
                                                row["query"]),
                        row["batch_size"], row["delta_records"],
                        row["output_delta_size"], row["work"],
                        row["parallel_time"], row["latency_s"]])
            print(f"wrote {args.out}")
    finally:
        engine.close()
    return 0


def _fuzz(args: argparse.Namespace) -> int:
    from repro.verify import FuzzConfig, replay_repro, run_fuzz

    if args.replay:
        mismatch = replay_repro(args.replay)
        if mismatch is None:
            print(f"repro {args.replay}: check passes — the failure no "
                  f"longer reproduces")
            return 0
        print(f"repro {args.replay}: still failing\n  {mismatch}")
        return 1
    kinds = None
    if args.kinds:
        kinds = [part.strip() for part in args.kinds.split(",")
                 if part.strip()]
    config = FuzzConfig(
        seed=args.seed, iterations=args.iterations,
        algorithms=args.algorithms, repro_out=args.repro_out,
        kinds=kinds, stop_on_mismatch=not args.keep_going)
    log = None if args.quiet else print
    report = run_fuzz(config, log=log)
    if args.quiet:
        print(report.summary())
    return 0 if report.ok else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "fuzz":
            return _fuzz(args)
        if args.command == "analyze":
            return _analyze(args)
        if args.command == "serve":
            # Per-subcommand overrides fold into the session knobs so the
            # resident dataflows (and backend validation) see them.
            if args.serve_workers is not None:
                args.workers = args.serve_workers
            if args.serve_backend is not None:
                args.backend = args.serve_backend
        session = _setup_session(args)
        if args.command == "info":
            _print_info(session)
        elif args.command == "run":
            _run(session, args)
        elif args.command == "profile":
            _profile(session, args)
        elif args.command == "serve":
            return _serve(session, args)
        elif args.command == "stream":
            return _stream_cmd(session, args)
        elif args.command in (None, "gvdl"):
            pass
    except (GraphsurgeError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        partial = getattr(error, "partial", None)
        if partial is not None:
            print(f"partial progress: {len(partial.views)} view(s) "
                  f"completed before the budget ran out"
                  + (" (checkpointed)" if args.command == "run"
                     and getattr(args, "checkpoint", None) else ""),
                  file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
