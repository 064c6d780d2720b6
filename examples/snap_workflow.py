"""End-to-end workflow on SNAP-format files (the paper's data pipeline).

Synthesizes files in the formats the paper's datasets ship in — a temporal
edge list like ``sx-stackoverflow.txt`` and a ground-truth community file
like ``com-lj.all.cmty.txt`` — then runs the two corresponding paper
workloads through the public loaders:

1. temporal history: cumulative windows over the timestamp, WCC across
   snapshots (Example 1 / Figure 6);
2. community perturbation: remove combinations of the largest communities,
   ordered by the collection-ordering optimizer (§7.4).

Substitute your real SNAP downloads for the synthesized files and the
script runs unchanged.

Run:  python examples/snap_workflow.py
"""

import random
import tempfile
from pathlib import Path

from repro.algorithms import Wcc
from repro.bench.workloads import perturbation_collection
from repro.core.diagnostics import summarize_collection
from repro.core.executor import AnalyticsExecutor, ExecutionMode
from repro.core.windows import cumulative_windows
from repro.graph.loaders import (
    load_communities,
    load_snap_edge_list,
    load_snap_temporal,
)


def synthesize_files(directory: Path) -> None:
    rng = random.Random(17)
    temporal = []
    for _ in range(800):
        u, v = rng.randrange(120), rng.randrange(120)
        if u != v:
            ts = 1_220_000_000 + int(250_000_000 * rng.random() ** 0.5)
            temporal.append(f"{u} {v} {ts}")
    (directory / "interactions.txt").write_text(
        "# src dst unixts\n" + "\n".join(temporal) + "\n")

    groups = [range(0, 40), range(40, 65), range(65, 85), range(85, 100)]
    social = []
    for group in groups:
        members = list(group)
        for _ in range(len(members) * 6):
            u, v = rng.sample(members, 2)
            social.append(f"{u} {v}")
    for _ in range(60):
        u, v = rng.randrange(100), rng.randrange(100)
        if u != v:
            social.append(f"{u} {v}")
    (directory / "social.txt").write_text("\n".join(social) + "\n")
    (directory / "social.cmty.txt").write_text(
        "\n".join(" ".join(str(m) for m in group) for group in groups)
        + "\n")


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp)
        synthesize_files(directory)
        executor = AnalyticsExecutor()

        # --- Workload 1: temporal history -------------------------------
        temporal = load_snap_temporal(directory / "interactions.txt")
        print(f"loaded {temporal!r} from SNAP temporal format")
        # A 150M-second initial window expanded in 25M-second steps — like
        # the paper's C_sim, the initial window carries most of the data
        # and each expansion is a small increment.
        bounds = [1_220_000_000 + 150_000_000 + step * 25_000_000
                  for step in range(5)]
        definition = cumulative_windows("history", "interactions", "ts",
                                        bounds=bounds)
        collection = definition.materialize(temporal)
        print(summarize_collection(collection).render())
        diff = executor.run_on_collection(
            Wcc(), collection, mode=ExecutionMode.DIFF_ONLY,
            keep_outputs=True, cost_metric="work")
        scratch = executor.run_on_collection(
            Wcc(), collection, mode=ExecutionMode.SCRATCH,
            cost_metric="work")
        print("components per snapshot:",
              [len(set(v.vertex_map().values())) for v in diff.views])
        print(f"history analysis: diff-only {diff.total_work} work vs "
              f"scratch {scratch.total_work} "
              f"({scratch.total_work / diff.total_work:.1f}x shared)\n")

        # --- Workload 2: community perturbation --------------------------
        social = load_snap_edge_list(directory / "social.txt")
        communities = load_communities(social,
                                       directory / "social.cmty.txt")
        print(f"loaded {social!r} with {communities} ground-truth "
              f"communities")
        ordered = perturbation_collection(social, top_n=4, k=2,
                                          order_method="christofides")
        unordered = perturbation_collection(social, top_n=4, k=2,
                                            order_method="random", seed=1)
        print(f"perturbation scenarios: {ordered.num_views}; "
              f"#diffs {ordered.total_diffs} (optimizer) vs "
              f"{unordered.total_diffs} (random) — "
              f"{unordered.total_diffs / ordered.total_diffs:.1f}x fewer")
        run = executor.run_on_collection(
            Wcc(), ordered, mode=ExecutionMode.ADAPTIVE,
            keep_outputs=True, cost_metric="work")
        worst = max(run.views,
                    key=lambda v: len(set(v.vertex_map().values())))
        print(f"most fragmenting scenario: {worst.view_name} -> "
              f"{len(set(worst.vertex_map().values()))} components")


if __name__ == "__main__":
    main()
