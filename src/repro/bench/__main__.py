"""Command-line entry point for the experiment drivers.

Usage::

    python -m repro.bench table2            # one experiment
    python -m repro.bench fig6 --quick      # smaller/faster configuration
    python -m repro.bench all               # everything, in paper order

After printing its tables, every experiment checks the paper's shapes on
its own rows; the command exits 1, listing each broken shape, if any
fails.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.bench.experiments import EXPERIMENTS


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Reproduce the paper's tables and figures and check "
                    "their shapes.")
    parser.add_argument("experiment", choices=[*EXPERIMENTS, "all"],
                        help="which table/figure to regenerate")
    parser.add_argument("--quick", action="store_true",
                        help="smaller configuration for a fast smoke run")
    parser.add_argument("--save", metavar="DIR", default=None,
                        help="archive results as CSV+Markdown under DIR")
    args = parser.parse_args(argv)
    names = list(EXPERIMENTS) if args.experiment == "all" \
        else [args.experiment]
    problems = []
    for name in names:
        started = time.perf_counter()
        rows = EXPERIMENTS[name].run(quick=args.quick)
        broken = EXPERIMENTS[name].check(rows)
        problems += [f"{name}: {problem}" for problem in broken]
        print(f"[{name} done in {time.perf_counter() - started:.1f}s; "
              f"{len(broken) or 'no'} broken shape(s)]")
        if args.save:
            from repro.bench.reporting import save_report

            save_report(rows, args.save, name)
            print(f"[saved {name}.csv and {name}.md under {args.save}]")
    if problems:
        print("\n".join(["paper shapes broken:", *problems]),
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
