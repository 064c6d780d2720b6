"""Figure 10 (§7.6): distributed scalability, 1 → 12 simulated machines.

BFS and WCC on the 9-view locality x affinity collection over the
TW-like graph. The reported metric is *simulated parallel time*: the sum
over operator supersteps of the maximum per-worker work under hash
partitioning — the cost model of a timely cluster (see DESIGN.md §2.3).
Shape to reproduce: near-linear scaling.
"""

from __future__ import annotations

from typing import List

from repro.algorithms import Bfs, Wcc
from repro.bench.harness import ExperimentResult, run_modes
from repro.bench.workloads import scalability_collection
from repro.core.executor import ExecutionMode

MACHINES = (1, 2, 4, 8, 12)


def run(quick: bool = False) -> List[ExperimentResult]:
    scale = 0.5 if quick else 1.0
    graph, collection = scalability_collection(
        num_nodes=int(400 * scale), num_edges=int(2400 * scale))
    machines = (1, 4, 12) if quick else MACHINES
    # The paper fixes the BFS source to the first vertex with an outgoing
    # edge; resolving it upfront keeps the dataflow free of the serial
    # global-min operator.
    source = min(edge.src for edge in graph.edges)
    rows: List[ExperimentResult] = []
    print("\n== Figure 10: simulated parallel time vs machines ==")
    print(f"{'machines':>8} {'BFS':>12} {'WCC':>12}")
    for workers in machines:
        line = [f"{workers:>8}"]
        for name, factory in (("BFS", lambda: Bfs(source=source)),
                              ("WCC", Wcc)):
            results = run_modes(factory, collection,
                                modes=(ExecutionMode.DIFF_ONLY,),
                                workers=workers)
            result = results[ExecutionMode.DIFF_ONLY]
            line.append(f"{result.total_parallel_time:>12}")
            rows.append(ExperimentResult(
                experiment="fig10",
                dataset="tw-like",
                algorithm=name,
                config=f"machines={workers}",
                mode="diff-only",
                num_views=collection.num_views,
                wall_seconds=result.total_wall_seconds,
                work=result.total_work,
                parallel_time=result.total_parallel_time,
                extra={"machines": workers},
            ))
        print(" ".join(line))
    return rows


def check(rows: List[ExperimentResult]) -> List[str]:
    """Parallel time never rises with more machines, for both algorithms;
    WCC's speedup exceeds 1.4x at 4 machines and grows beyond it."""
    problems = []
    times = {}
    for name in ("BFS", "WCC"):
        # rows come in ascending machine order
        times[name] = {row.extra["machines"]: row.parallel_time
                       for row in rows if row.algorithm == name}
        series = list(times[name].values())
        if series != sorted(series, reverse=True):
            problems.append(f"{name}: parallel time {series} rises with "
                            f"more machines")
    wcc = times["WCC"]
    if not wcc[1] / wcc[4] > 1.4:
        problems.append(f"WCC: 4-machine speedup {wcc[1] / wcc[4]:.2f} is "
                        f"not above 1.4")
    if not wcc[12] < wcc[4]:
        problems.append("WCC: 12 machines are not faster than 4")
    return problems
