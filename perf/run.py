"""The repo benchmark's one command.

Contract mode — one workload, one process, result on the last line::

    python3 perf/run.py --workload expand_similar --seed 11 --seconds 16 --trace 0

prints every end-to-end metric (``--trace 0``) or every per-layer metric
(``--trace 1``) named in ``BENCHMARK.json`` as one JSON object::

    {"correct": true, "attempted": 98, "failed": 0, "metrics": {...}}

Whole-suite mode — every workload in a fresh child process each, a table
of every metric with its unit, and one JSON result file::

    python3 perf/run.py --all --seed 11 [--trace 1] [--only a,b] [--out F]

A run repeats *reps* until ``--seconds`` have passed (and at least the
driver module's ``MIN_REPS`` / ``MIN_TRACED_REPS``). Each rep makes its own inputs from
``(seed, rep index)``, sets the program up, times the workload's calls, and
checks the outputs against ``perf/oracle.py`` after the clock has stopped.
Imports, input files and oracle checks are outside every timed section. An
end-to-end timing is the run's best rep (see ``end_to_end``); a per-layer
timing is the median over the traced reps.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
BATCH = ("expand_similar", "slide_disjoint", "perturb_ordered",
         "expand_process2")
DRIVERS = dict.fromkeys(BATCH, "batch")
DRIVERS.update(stream_churn="stream", serve_mixed="serve")


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def driver(workload: str):
    """The module that drives ``workload`` (imported late: ``--all`` and
    ``--help`` must not pay for, or fail on, importing the program)."""
    if not (ROOT / "src" / "repro").is_dir():
        sys.exit(f"perf/run.py: no program to measure under {ROOT / 'src'}")
    if workload not in DRIVERS:
        sys.exit(f"perf/run.py: unknown workload {workload!r}")
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    return importlib.import_module(DRIVERS[workload])


def repeat(seconds: float, reps: int, min_reps: int, one_rep) -> list:
    """Call ``one_rep(index)`` until ``seconds`` have passed (and at least
    ``min_reps`` times), or exactly ``reps`` times when that override is
    given."""
    samples = []
    deadline = time.monotonic() + seconds
    while (len(samples) < reps if reps
           else len(samples) < min_reps or time.monotonic() < deadline):
        gc.collect()  # a collection owed to the last rep is not this one's
        samples.append(one_rep(len(samples)))
    return samples


def end_to_end(samples: list) -> dict:
    """The best rep of the run, metric by metric.

    The reference box is a shared VM whose neighbours slow it in bursts of
    seconds: bursts only ever add time, and every run has reps they missed.
    Over ten runs of one workload in a noisy quarter of an hour the fastest
    rep moved 6 % (interquartile), the median rep 19 %.
    """
    return {
        "setup_s": min(s["setup_s"] for s in samples),
        "run_s": min(s["run_s"] for s in samples),
        "items_per_s": max(s["items"] / s["run_s"] for s in samples),
        "peak_rss_mb": max(s["peak_rss_mb"] for s in samples),
    }


def measure(args) -> int:
    import gen
    from spans import Tracer, check_tree

    module = driver(args.workload)
    cfg = module.config(args.workload, args.smoke)
    benchmark = spec()
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="tmp-", dir=OUT))
    tracer = Tracer(enabled=bool(args.trace))
    started = time.monotonic()
    try:
        if args.trace:
            samples = repeat(
                args.seconds, args.reps, module.MIN_TRACED_REPS,
                lambda i: module.traced_rep(cfg, gen.subseed(args.seed, i),
                                            workdir, tracer))
            measured = module.per_layer(samples, tracer)
            names = benchmark["per_layer"]
        else:
            samples = repeat(
                args.seconds, args.reps, module.MIN_REPS,
                lambda i: module.rep(cfg, gen.subseed(args.seed, i),
                                     workdir, tracer))
            measured = end_to_end(samples)
            names = benchmark["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(s["attempted"] for s in samples)
    failed = sum(s["failed"] for s in samples)
    problems = check_tree(tracer.spans)
    void = [s["void"] for s in samples if s.get("void")]
    # A layer the workload bypasses reads 0: no span of it was recorded.
    metrics = {m["name"]: {"value": measured.get(m["name"], 0.0),
                           "unit": m["unit"]} for m in names}
    unknown = sorted(k for k in measured if k not in metrics)
    if unknown:
        sys.exit(f"perf/run.py: metrics not in BENCHMARK.json: {unknown}")
    result = {"correct": failed == 0 and not problems and not void,
              "attempted": attempted, "failed": failed, "metrics": metrics}
    detail = dict(
        result, workload=args.workload, seed=args.seed, trace=args.trace,
        seconds=args.seconds, reps=len(samples), claim=None,
        wall_s=time.monotonic() - started,
        overrides={"reps": args.reps, "smoke": args.smoke},
        measured=sorted(measured),
        rep_seconds=[[s.get("setup_s"), s.get("run_s")] for s in samples],
        input_digests=[s["digest"] for s in samples],
        counts=[s["counts"] for s in samples],
        span_problems=problems, void=void)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"result-{tag}.json").write_text(json.dumps(detail, indent=1))
    if args.trace:
        (OUT / f"trace-{args.workload}.json").write_text(
            json.dumps(tracer.spans))
    for name, metric in metrics.items():
        print(f"{name:40s} {metric['value']:>16.6f} {metric['unit']}")
    print(f"reps {len(samples)}  attempted {attempted}  failed {failed}"
          + "".join(f"\n  {p}" for p in problems + void))
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in a fresh child, so ``peak_rss_mb`` is per workload
    and no workload warms the next one's caches."""
    benchmark = spec()
    chosen = [w["name"] for w in benchmark["workloads"]
              if not args.only or w["name"] in args.only.split(",")]
    seconds = args.seconds or benchmark["run_seconds"]
    summary = {"seed": args.seed, "seconds": seconds, "claim": None,
               "overrides": {"reps": args.reps, "smoke": args.smoke,
                             "only": args.only}, "workloads": {}}
    for workload in chosen:
        entry = summary["workloads"].setdefault(workload, {})
        for trace in ([0, 1] if args.trace else [0]):
            command = [sys.executable, str(HERE / "run.py"),
                       "--workload", workload, "--seed", str(args.seed),
                       "--seconds", str(seconds), "--trace", str(trace),
                       "--reps", str(args.reps)]
            if args.smoke:
                command.append("--smoke")
            done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
            if done.returncode:
                print(done.stdout)
                return done.returncode
            lines = done.stdout.strip().splitlines()
            print(f"== {workload} (trace {trace})")
            print("\n".join(lines[:-1]))
            entry["per_layer" if trace else "end_to_end"] = \
                json.loads(lines[-1])
            tag = f"{workload}-seed{args.seed}-trace{trace}"
            detail = json.loads((OUT / f"result-{tag}.json").read_text())
            entry.setdefault("counts", {})[str(trace)] = detail["counts"]
    out = Path(args.out) if args.out else OUT / f"all-seed{args.seed}.json"
    out.write_text(json.dumps(summary, indent=1))
    print(f"wrote {out}")
    ok = all(part["correct"] for entry in summary["workloads"].values()
             for key, part in entry.items() if key != "counts")
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--all", action="store_true")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=0.0,
                        help="how long one run measures "
                             "(default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--only", default="",
                        help="with --all: comma-separated workloads")
    parser.add_argument("--reps", type=int, default=0,
                        help="run exactly this many reps instead of "
                             "--seconds (recorded in the result)")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, for perf/tests (recorded)")
    parser.add_argument("--out", default="")
    args = parser.parse_args()
    if args.all == bool(args.workload):
        parser.error("give exactly one of --workload and --all")
    if args.all:
        return run_all(args)
    if not args.seconds:
        args.seconds = spec()["run_seconds"]
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
