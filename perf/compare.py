"""Compare benchmark result sets: a row per workload x end-to-end metric.

    python3 perf/compare.py BASE NEW            # regressions only
    python3 perf/compare.py BASE NEW --pairs    # may also say "improved"
    python3 perf/compare.py --spread DIR        # is the benchmark steady?

BASE and NEW are each a result file written by ``run.py --all`` or a
directory of them (one file per run set). Verdicts:

* ``unresolved`` — a side's own runs spread wider than the metric's bound
  (needs >= 2 run sets a side to be ruled out), so nothing can be said;
* ``regressed`` — NEW's median is worse than BASE's by more than the bound;
* ``improved`` — only with ``--pairs`` and >= 10 run sets a side, paired in
  file-name order: NEW wins at least nine tenths of the pairs (ties count
  for neither) and the medians differ by more than BASE's own
  interquartile range;
* ``unchanged`` — none of the above.

Exits 1 on any ``regressed`` row, or when NEW failed more operations than
BASE. Result sets taken with different overrides (``--reps``, ``--smoke``,
``--only``, ``--seconds``) are refused: a shortened run is not comparable.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Tuple

HERE = Path(__file__).resolve().parent


def load_side(path: str) -> List[dict]:
    target = Path(path)
    files = sorted(target.glob("*.json")) if target.is_dir() else [target]
    if not files:
        sys.exit(f"compare.py: no result files in {path}")
    return [json.loads(f.read_text()) for f in files]


def series(runs: List[dict]) -> Dict[Tuple[str, str], List[float]]:
    """(workload, metric) -> one value per run set."""
    out: Dict[Tuple[str, str], List[float]] = {}
    for run in runs:
        for workload, entry in run["workloads"].items():
            for name, metric in entry["end_to_end"]["metrics"].items():
                out.setdefault((workload, name), []).append(metric["value"])
    return out


def spread(values: List[float]) -> float:
    """Distance between the quartiles (the range, below four values) as a
    share of the median; 0 for a single value."""
    if len(values) < 2:
        return 0.0
    if len(values) < 4:
        return (max(values) - min(values)) / statistics.median(values)
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def failed_frac(runs: List[dict]) -> float:
    parts = [entry["end_to_end"] for run in runs
             for entry in run["workloads"].values()]
    return (sum(p["failed"] for p in parts)
            / max(1, sum(p["attempted"] for p in parts)))


def compare(base: List[dict], new: List[dict], bounds: Dict[str, dict],
            pairs: bool) -> int:
    settings = {json.dumps([r["seconds"], r["overrides"]], sort_keys=True)
                for r in base + new}
    if len(settings) > 1:
        sys.exit(f"compare.py: run settings differ: {sorted(settings)}")
    if pairs and min(len(base), len(new)) < 10:
        sys.exit("compare.py: --pairs needs at least 10 run sets a side")
    a, b = series(base), series(new)
    regressed = 0
    print(f"{'workload':18s}{'metric':14s}{'base':>12s}{'new':>12s}"
          f"{'ratio':>8s}{'bound':>7s}  verdict")
    for key in sorted(a):
        if key not in b:
            continue
        workload, name = key
        bound, lower = bounds[name]["bound"], bounds[name]["better"] == "lower"
        base_med, new_med = statistics.median(a[key]), statistics.median(b[key])
        ratio = new_med / base_med
        worse_by = ratio - 1 if lower else 1 - ratio
        verdict = "unchanged"
        if max(spread(a[key]), spread(b[key])) > bound:
            verdict = "unresolved"
        elif worse_by > bound:
            verdict = "regressed"
            regressed += 1
        elif pairs:
            duels = list(zip(a[key], b[key]))
            wins = sum(x != y and (y < x) == lower for x, y in duels)
            gap = abs(new_med - base_med)
            q = statistics.quantiles(a[key], n=4)
            if wins >= 0.9 * len(duels) and gap > q[2] - q[0]:
                verdict = "improved"
        print(f"{workload:18s}{name:14s}{base_med:12.4f}{new_med:12.4f}"
              f"{ratio:8.3f}{bound:7.2f}  {verdict}")
    more_failures = failed_frac(new) > failed_frac(base)
    if more_failures:
        print(f"failed_frac rose: {failed_frac(base)} -> {failed_frac(new)}")
    return 1 if regressed or more_failures else 0


def report_spread(runs: List[dict], bounds: Dict[str, dict]) -> int:
    """The benchmark's own acceptance check: over >= 10 run sets on
    different seeds, every spread below a third of its bound."""
    wide = 0
    print(f"{'workload':18s}{'metric':14s}{'median':>12s}{'spread':>8s}"
          f"{'bound':>7s}  runs")
    for (workload, name), values in sorted(series(runs).items()):
        bound = bounds[name]["bound"]
        share = spread(values)
        flag = "" if share <= bound / 3 or name == "setup_s" else "  WIDE"
        wide += bool(flag)
        print(f"{workload:18s}{name:14s}{statistics.median(values):12.4f}"
              f"{share:8.3f}{bound:7.2f}  {len(values)}{flag}")
    print(f"failed_frac {failed_frac(runs)}")
    return 1 if wide or failed_frac(runs) else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("sides", nargs="*", metavar="BASE NEW")
    parser.add_argument("--pairs", action="store_true")
    parser.add_argument("--spread", metavar="DIR")
    args = parser.parse_args()
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    if args.spread:
        return report_spread(load_side(args.spread), bounds)
    if len(args.sides) != 2:
        parser.error("give BASE and NEW, or --spread DIR")
    return compare(load_side(args.sides[0]), load_side(args.sides[1]),
                   bounds, args.pairs)


if __name__ == "__main__":
    sys.exit(main())
