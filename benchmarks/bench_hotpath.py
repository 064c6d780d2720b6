"""Hot-path micro/meso benchmark suite and regression gate.

Measures the differential engine's hot paths at three granularities:

* **join-heavy** — multi-epoch random churn through plain and arranged
  joins (operator-level throughput);
* **iterate-heavy** — a long-diameter label propagation, where per-key
  trace accumulation dominates (the `KeyTrace` cache's home turf);
* **collection-run** — the end-to-end Graphsurge workload: an iterative
  computation executed differentially across a whole view collection;
* **collection-create** — what the user pays before any analytics runs
  (paper Table 4's "CC time"): EBM, Christofides ordering and the
  difference stream for many views over few properties.

Each scenario reports wall seconds, a calibration-normalized *score*
(seconds divided by a fixed pure-Python calibration loop, so numbers are
comparable across machines of different speeds), the engine's
deterministic cost counters (``work``, ``parallel_time``), and a
canonical ``output_digest`` so runs can be checked for observational
equality.

Usage::

    PYTHONPATH=src python benchmarks/bench_hotpath.py                # print
    PYTHONPATH=src python benchmarks/bench_hotpath.py --emit BENCH_engine.json
    PYTHONPATH=src python benchmarks/bench_hotpath.py --check BENCH_engine.json
    PYTHONPATH=src python benchmarks/bench_hotpath.py \
        --compare-backends --workers 4 --min-speedup 2.0

``--check`` is the regression gate used by the CI ``perf-smoke`` job: it
exits non-zero when any scenario's ``work`` or ``parallel_time`` differs
from the committed baseline (the counters are deterministic; wall clock
and score are printed, not gated).

``--compare-backends`` is the gate behind ``make bench-parallel`` and
the CI ``parallel-smoke`` job: it runs the suite on the inline backend
and again on the process backend (real OS worker processes, see
``docs/parallel.md``), fails if any counter or output digest differs,
and — when the machine actually has the cores — enforces a minimum
wall-clock speedup with ``--min-speedup``. On machines with fewer cores
than ``--workers`` the speedup is reported advisorily instead of
gating, because forked workers time-slicing one core cannot beat the
inline loop.

This file is a plain script, not a pytest-benchmark module: the gate must
run without pytest and produce one comparable JSON payload per run.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import os
import random
import sys
import time
from typing import Callable, Dict, Optional, Sequence, Tuple

from repro.algorithms import Bfs, Wcc
from repro.bench.reporting import (
    BENCH_SCHEMA,
    backend_speedup_rows,
    bench_to_json,
    compare_backend_payloads,
    compare_benchmarks,
    load_bench_json,
    render_backend_comparison,
)
from repro.core.diff_stream import compute_diff_stream
from repro.core.ebm import build_ebm
from repro.core.executor import AnalyticsExecutor, ExecutionMode
from repro.core.ordering.optimizer import order_collection
from repro.core.view_collection import collection_from_diffs
from repro.differential import Dataflow
from repro.errors import ConfigError
from repro.graph.property_graph import PropertyGraph
from repro.gvdl.parser import parse
from repro.timely.meter import WorkMeter


def _calibrate() -> float:
    """Seconds for a fixed pure-Python workload (machine-speed yardstick).

    Dict churn and tuple hashing approximate the engine's instruction mix
    better than arithmetic loops. Best-of-three guards against scheduler
    noise.
    """
    def loop() -> float:
        started = time.perf_counter()
        table: Dict[Tuple[int, int], int] = {}
        for i in range(120_000):
            key = (i % 997, i % 31)
            table[key] = table.get(key, 0) + 1
            if i % 7 == 0:
                table.pop((i % 89, i % 31), None)
        return time.perf_counter() - started

    return min(loop() for _ in range(3))


def _digest(canonical: object) -> str:
    """Short stable digest of an already-canonicalized (sorted) value."""
    return hashlib.sha256(repr(canonical).encode()).hexdigest()[:16]


def _digest_captures(captures) -> str:
    """Digest one or more ``CaptureOp`` difference streams canonically."""
    canonical = tuple(
        (cap.name, tuple(sorted(
            (time_, tuple(sorted(diff.items())))
            for time_, diff in cap.trace.entries.items())))
        for cap in captures)
    return _digest(canonical)


def _digest_views(result) -> str:
    """Digest a collection run's kept per-view outputs canonically."""
    canonical = tuple(
        (view.view_name, tuple(sorted(view.output.items())))
        for view in result.views)
    return _digest(canonical)


# -- scenarios ----------------------------------------------------------------


def _random_keyed_diff(n: int, keys: int, rng: random.Random) -> Dict:
    return {(rng.randrange(keys), rng.randrange(1_000)): 1
            for _ in range(n)}


def scenario_join_heavy(scale: float, workers: int = 1,
                        backend: str = "inline") -> Dict[str, object]:
    """Multi-epoch churn through one plain two-sided join."""
    rng = random.Random(7)
    df = Dataflow(workers=workers, backend=backend)
    a = df.new_input("a")
    b = df.new_input("b")
    out = df.capture(a.join(b), "out")
    n = int(4_000 * scale)
    started = time.perf_counter()
    try:
        for _epoch in range(6):
            df.step({"a": _random_keyed_diff(n, 900, rng),
                     "b": _random_keyed_diff(n, 900, rng)})
        wall = time.perf_counter() - started
        digest = _digest_captures([out])
    finally:
        df.close()
    return {"work": df.meter.total_work,
            "parallel_time": df.meter.parallel_time,
            "wall_seconds": wall,
            "output_digest": digest}


def scenario_join_arranged_shared(scale: float, workers: int = 1,
                                  backend: str = "inline"
                                  ) -> Dict[str, object]:
    """One arrangement of a churning relation read by three joins."""
    rng = random.Random(11)
    df = Dataflow(workers=workers, backend=backend)
    base = df.new_input("base")
    arranged = base.arrange_by_key("base.arr")
    captures = []
    for index in range(3):
        probe = df.new_input(f"probe{index}")
        captures.append(
            df.capture(probe.join_arranged(arranged), f"out{index}"))
    n = int(3_000 * scale)
    started = time.perf_counter()
    try:
        for _epoch in range(5):
            feed = {"base": _random_keyed_diff(n, 700, rng)}
            for index in range(3):
                feed[f"probe{index}"] = _random_keyed_diff(n // 3, 700, rng)
            df.step(feed)
        wall = time.perf_counter() - started
        digest = _digest_captures(captures)
    finally:
        df.close()
    return {"work": df.meter.total_work,
            "parallel_time": df.meter.parallel_time,
            "wall_seconds": wall,
            "output_digest": digest}


def scenario_iterate_heavy(scale: float, workers: int = 1,
                           backend: str = "inline") -> Dict[str, object]:
    """Label propagation over a long path: many iterations, deep traces.

    A path graph has diameter ``n - 1``, so the fixed point takes ~n
    iterations and every vertex's trace is touched across many of them —
    the accumulate-dominated regime.
    """
    n = int(90 * scale)
    df = Dataflow(workers=workers, backend=backend)
    edges = df.new_input("edges")
    labels = df.new_input("labels")

    def body(inner, scope):
        e = scope.enter(edges)
        seed = scope.enter(labels)
        return inner.join(
            e, lambda u, lbl, v: (v, lbl)).concat(seed).min_by_key()

    out = df.capture(labels.iterate(body), "out")
    path = {}
    for u in range(n - 1):
        path[(u, u + 1)] = 1
        path[(u + 1, u)] = 1
    started = time.perf_counter()
    try:
        df.step({"edges": path, "labels": {(v, v): 1 for v in range(n)}})
        # A handful of incremental epochs: cut and re-link the path near
        # the far end, so corrections cascade through long iteration
        # suffixes.
        for epoch in range(1, 4):
            cut = n - 12 * epoch
            df.step({"edges": {(cut, cut + 1): -1, (cut + 1, cut): -1}})
            df.step({"edges": {(cut, cut + 1): 1, (cut + 1, cut): 1}})
        wall = time.perf_counter() - started
        digest = _digest_captures([out])
    finally:
        df.close()
    return {"work": df.meter.total_work,
            "parallel_time": df.meter.parallel_time,
            "wall_seconds": wall,
            "output_digest": digest}


def _path_cut_collection(num_nodes: int, num_views: int, seed: int):
    """A path graph whose views cut (and later restore) deep chain edges.

    Cutting a path edge relabels the entire downstream suffix, so every
    view forces corrections across long iteration ranges — the
    iterate-heavy collection-run regime the trace cache targets.
    """
    rng = random.Random(seed)
    base: Dict[Tuple[int, int, int, int], int] = {}
    for u in range(num_nodes - 1):
        base[(u, u, u + 1, 1)] = 1
    diffs = [dict(base)]
    cut = None
    for _index in range(1, num_views):
        diff: Dict[Tuple[int, int, int, int], int] = {}
        if cut is not None:
            diff[cut] = diff.get(cut, 0) + 1
        position = num_nodes // 2 + rng.randrange(num_nodes // 2 - 2)
        cut = (position, position, position + 1, 1)
        diff[cut] = diff.get(cut, 0) - 1
        # Re-cutting the restored position nets out to no change.
        diffs.append({edge: mult for edge, mult in diff.items() if mult})
    return collection_from_diffs(f"hotpath-pathcut-{num_views}", diffs)


def scenario_collection_run(scale: float, workers: int = 1,
                            backend: str = "inline") -> Dict[str, object]:
    """The headline workload: iterative WCC differentially across a
    collection of deep-cut path views."""
    collection = _path_cut_collection(int(100 * scale), 10, seed=3)
    executor = AnalyticsExecutor(workers=workers, backend=backend)
    started = time.perf_counter()
    result = executor.run_on_collection(
        Wcc(), collection, mode=ExecutionMode.DIFF_ONLY,
        keep_outputs=True, cost_metric="work")
    wall = time.perf_counter() - started
    return {"work": result.total_work,
            "parallel_time": result.total_parallel_time,
            "wall_seconds": wall,
            "output_digest": _digest_views(result)}


def scenario_collection_bfs(scale: float, workers: int = 1,
                            backend: str = "inline") -> Dict[str, object]:
    """BFS across the same deep-cut collection (join + min reduce mix)."""
    collection = _path_cut_collection(int(100 * scale), 6, seed=5)
    executor = AnalyticsExecutor(workers=workers, backend=backend)
    started = time.perf_counter()
    result = executor.run_on_collection(
        Bfs(source=0), collection, mode=ExecutionMode.DIFF_ONLY,
        keep_outputs=True, cost_metric="work")
    wall = time.perf_counter() - started
    return {"work": result.total_work,
            "parallel_time": result.total_parallel_time,
            "wall_seconds": wall,
            "output_digest": _digest_views(result)}


def scenario_collection_create(scale: float, workers: int = 1,
                               backend: str = "inline"
                               ) -> Dict[str, object]:
    """Collection creation: 30 views over 4 boolean node properties —
    14 community-removal views and 16 community-to-community views, all
    built from the same 8 atoms (``src.c<i> = true``, ``dst.c<i> = true``)
    — Christofides-ordered and rendered as a difference stream.

    Creation always runs in-process (``backend`` is accepted for the
    suite's calling convention only); one meter is threaded through the
    three steps, so ``work`` / ``parallel_time`` are creation's own.
    """
    del backend
    rng = random.Random(13)
    communities = range(4)
    num_nodes = int(300 * scale)
    graph = PropertyGraph("g")
    for node in range(num_nodes):
        home = rng.choice(communities)
        graph.add_node(node, {f"c{i}": i == home for i in communities})
    for _ in range(int(2_000 * scale)):
        graph.add_edge(rng.randrange(num_nodes), rng.randrange(num_nodes),
                       {"w": rng.randrange(1, 9)})
    views = {}
    for size in (1, 2, 3):
        for combo in itertools.combinations(communities, size):
            atoms = " or ".join(f"{end}.c{i} = true"
                                for i in combo for end in ("src", "dst"))
            views["drop" + "".join(map(str, combo))] = f"not ({atoms})"
    for i, j in itertools.product(communities, repeat=2):
        views[f"from{i}to{j}"] = f"src.c{i} = true and dst.c{j} = true"
    names = list(views)
    predicates = [
        parse(f"create view v on g edges where {source}").predicate
        for source in views.values()]
    meter = WorkMeter(workers)
    started = time.perf_counter()
    ebm = build_ebm(graph, names, predicates, meter=meter, workers=workers)
    ordering = order_collection(ebm.matrix, method="christofides",
                                workers=workers, meter=meter)
    ebm = ebm.reorder(ordering.order)
    diffs = compute_diff_stream(ebm, meter=meter)
    wall = time.perf_counter() - started
    digest = _digest((
        hashlib.sha256(ebm.matrix.tobytes()).hexdigest(),
        tuple(ordering.order),
        tuple(tuple(diff.items()) for diff in diffs)))
    return {"work": meter.total_work,
            "parallel_time": meter.parallel_time,
            "wall_seconds": wall,
            "output_digest": digest}


SCENARIOS: Dict[str, Callable[..., Dict[str, object]]] = {
    "join_heavy": scenario_join_heavy,
    "join_arranged_shared": scenario_join_arranged_shared,
    "iterate_heavy": scenario_iterate_heavy,
    "collection_run_wcc": scenario_collection_run,
    "collection_run_bfs": scenario_collection_bfs,
    "collection_create": scenario_collection_create,
}


def run_suite(scale: float = 1.0, workers: int = 1,
              backend: str = "inline",
              names: Optional[Sequence[str]] = None) -> Dict[str, object]:
    """Run the selected scenarios once; return the comparable payload."""
    if names is None:
        names = list(SCENARIOS)
    unknown = [name for name in names if name not in SCENARIOS]
    if unknown:
        raise ConfigError(f"unknown scenario(s) {unknown}; "
                          f"known: {sorted(SCENARIOS)}")
    calibration = _calibrate()
    scenarios: Dict[str, Dict[str, object]] = {}
    for name in names:
        counters = SCENARIOS[name](scale, workers=workers, backend=backend)
        # Scenarios time their own execution window, which excludes the
        # output-digest canonicalization: that is measurement overhead,
        # identical across backends, and would otherwise dominate the
        # score of output-heavy scenarios.
        wall = counters["wall_seconds"]
        scenarios[name] = {
            "wall_seconds": round(wall, 4),
            "score": round(wall / calibration, 2),
            "work": counters["work"],
            "parallel_time": counters["parallel_time"],
            "output_digest": counters["output_digest"],
        }
    return {
        "suite": "hotpath",
        "schema": BENCH_SCHEMA,
        "scale": scale,
        "backend": backend,
        "workers": workers,
        "calibration_seconds": round(calibration, 4),
        "scenarios": scenarios,
    }


def _render(payload: Dict[str, object]) -> str:
    lines = [f"hotpath suite (scale {payload['scale']}, backend "
             f"{payload['backend']}, workers {payload['workers']}, "
             f"calibration {payload['calibration_seconds']}s)"]
    header = f"{'scenario':<24} {'wall(s)':>9} {'score':>8} " \
             f"{'work':>12} {'ptime':>12}  digest"
    lines.append(header)
    for name, row in payload["scenarios"].items():
        lines.append(
            f"{name:<24} {row['wall_seconds']:>9.3f} {row['score']:>8.2f} "
            f"{row['work']:>12} {row['parallel_time']:>12}  "
            f"{row['output_digest']}")
    return "\n".join(lines)


def _compare_backends(args) -> int:
    """Run inline vs process, gate on equality (and speedup if gateable)."""
    names = None
    if args.scenarios:
        names = [part.strip() for part in args.scenarios.split(",")
                 if part.strip()]
    print(f"running inline backend (workers={args.workers})...")
    inline_payload = run_suite(scale=args.scale, workers=args.workers,
                               backend="inline", names=names)
    print(f"running process backend (workers={args.workers})...")
    process_payload = run_suite(scale=args.scale, workers=args.workers,
                                backend="process", names=names)
    rows = backend_speedup_rows(inline_payload, process_payload)
    print()
    print(render_backend_comparison(rows))
    problems = compare_backend_payloads(inline_payload, process_payload)
    if problems:
        print("\nBACKEND DIVERGENCE (counters/outputs must be identical)")
        for problem in problems:
            print("  " + problem)
        return 1
    print("\nOK: counters and output digests identical across backends")
    if args.min_speedup is not None:
        cores = os.cpu_count() or 1
        slow = [row for row in rows
                if float(row["speedup"]) < args.min_speedup]
        if cores < args.workers:
            print(f"speedup gate advisory only: {cores} core(s) < "
                  f"{args.workers} workers"
                  + (f"; below target: "
                     f"{[row['scenario'] for row in slow]}" if slow else ""))
        elif slow:
            print(f"\nSPEEDUP below {args.min_speedup:.2f}x:")
            for row in slow:
                print(f"  {row['scenario']}: {row['speedup']}x")
            return 1
        else:
            print(f"OK: every scenario >= {args.min_speedup:.2f}x")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", type=float, default=1.0,
                        help="workload size multiplier (default 1.0; the "
                             "committed baseline is recorded at 1.0)")
    parser.add_argument("--workers", type=int, default=1,
                        help="worker shard count (default 1)")
    parser.add_argument("--backend", default="inline",
                        choices=["inline", "process"],
                        help="execution backend (default inline; see "
                             "docs/parallel.md)")
    parser.add_argument("--scenarios", default=None, metavar="A,B",
                        help="comma-separated scenario subset "
                             "(default: all)")
    parser.add_argument("--emit", metavar="PATH",
                        help="write this run as a JSON baseline")
    parser.add_argument("--check", metavar="PATH",
                        help="compare work/parallel_time against a JSON "
                             "baseline; exit 1 on any difference")
    parser.add_argument("--compare-backends", action="store_true",
                        help="run inline AND process backends; fail on "
                             "any counter/output divergence")
    parser.add_argument("--min-speedup", type=float, default=None,
                        metavar="X",
                        help="with --compare-backends: minimum process-"
                             "backend wall-clock speedup; enforced only "
                             "when the machine has >= --workers cores, "
                             "advisory otherwise")
    args = parser.parse_args(argv)

    try:
        if args.compare_backends:
            return _compare_backends(args)

        payload = run_suite(scale=args.scale, workers=args.workers,
                            backend=args.backend,
                            names=([part.strip() for part in
                                    args.scenarios.split(",")
                                    if part.strip()]
                                   if args.scenarios else None))
    except ConfigError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    print(_render(payload))

    if args.emit:
        bench_to_json(payload, args.emit)
        print(f"\nbaseline written to {args.emit}")
    if args.check:
        baseline = load_bench_json(args.check)
        if baseline.get("scale") != args.scale:
            print(f"\nWARNING: baseline recorded at scale "
                  f"{baseline.get('scale')}, this run at {args.scale}; "
                  f"work comparisons are not meaningful", file=sys.stderr)
        problems = compare_benchmarks(payload, baseline)
        if problems:
            print("\nDIFFERENCES vs " + str(args.check))
            for problem in problems:
                print("  " + problem)
            return 1
        print(f"\nOK: work and parallel_time equal {args.check}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
