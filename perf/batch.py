"""The four batch workloads: a view collection from definition to results.

Untraced reps drive only the facade (``Graphsurge.load_graph`` /
``execute`` / ``run_analytics``). Traced reps re-drive the facade's
pipeline with the same public layer functions in the facade's order, each
call inside a span, and must reproduce the facade's work counters, split
points and output digest exactly — otherwise the trace is void.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import statistics
import time
from pathlib import Path
from typing import Dict, List, Tuple

import gen
import oracle
from spans import Tracer, layer_self_times, peak_rss_mb, self_times, total

from repro import ExecutionMode, Graphsurge
from repro.algorithms import OutDegrees, PageRank, Wcc

#: Frozen sizes. Each rep is sized to 0.6-1 s on the 2-core reference box so
#: a 16 s run holds 12-25 reps; see perf/README.md "How sizes were chosen".
TEMPORAL = dict(blocks=8, block_nodes=80, block_edges=400, span=3000)
EXPAND = [(0, 1830 + 90 * i) for i in range(14)]   # 61 % base, +3 % each
SLIDE = [(375 * i, 375 * (i + 1)) for i in range(8)]
WORKLOADS: Dict[str, dict] = {
    "expand_similar": dict(
        graph=TEMPORAL, windows=EXPAND, computations=("wcc",), system={}),
    "slide_disjoint": dict(
        graph=dict(TEMPORAL, blocks=4), windows=SLIDE,
        computations=("wcc", "pagerank"), system={}),
    "perturb_ordered": dict(
        graph=dict(nodes=600, edges=3000, communities=8), drop=4,
        computations=("degrees",),
        system=dict(order_collections="christofides")),
    "expand_process2": dict(
        graph=TEMPORAL, windows=EXPAND, computations=("wcc",),
        system=dict(workers=2, backend="process")),
}

MIN_REPS = 3         # the best of fewer reps is one rep's luck
MIN_TRACED_REPS = 1  # per-layer figures carry no bound; --seconds decides
SMOKE_TEMPORAL = dict(blocks=4, block_nodes=20, block_edges=60, span=3000)
SMOKE = {name: dict(cfg, graph=SMOKE_TEMPORAL) for name, cfg in
         WORKLOADS.items() if name != "perturb_ordered"}
SMOKE["perturb_ordered"] = dict(
    WORKLOADS["perturb_ordered"],
    graph=dict(nodes=120, edges=400, communities=5), drop=2)


def config(workload: str, smoke: bool) -> dict:
    return (SMOKE if smoke else WORKLOADS)[workload]


COMPUTATIONS = {
    "wcc": (Wcc, oracle.wcc),
    "pagerank": (lambda: PageRank(iterations=10), oracle.pagerank),
    "degrees": (OutDegrees, oracle.out_degrees),
}


class Inputs:
    """What one rep hands the program, plus what the oracle needs."""

    def __init__(self, cfg: dict, seed: int):
        if "drop" in cfg:
            self.nodes_csv, self.edges_csv, pairs, member = \
                gen.community_graph(seed, **cfg["graph"])
            views = gen.perturb_views(seed, cfg["graph"]["communities"],
                                      cfg["drop"])
            self.gvdl = gen.perturb_gvdl("c", "g", views)
            self._views = [
                (name, lambda edge, combo=combo: member[edge[0]] not in combo
                 and member[edge[1]] not in combo) for name, combo in views]
            self._edges = pairs
        else:
            self.nodes_csv, self.edges_csv, rows = \
                gen.temporal_graph(seed, **cfg["graph"])
            self.gvdl = gen.windows_gvdl("c", "g", cfg["windows"])
            self._views = [
                (f"w{i}", lambda edge, lo=lo, hi=hi: lo <= edge[2] < hi)
                for i, (lo, hi) in enumerate(cfg["windows"])]
            self._edges = rows
        self.edges = len(self._edges)
        self.views = len(self._views)
        self.digest = gen.digest(self.nodes_csv, self.edges_csv, self.gvdl)

    def view_edges(self) -> Dict[str, list]:
        """Each view's edge list, worked out by the benchmark itself
        (after the clock: this is the oracle's side, not set-up)."""
        return {name: [edge for edge in self._edges if member(edge)]
                for name, member in self._views}


def load(cfg: dict, inputs: Inputs, workdir: Path) -> Graphsurge:
    """Write the CSVs and load them through the facade."""
    nodes, edges = workdir / "nodes.csv", workdir / "edges.csv"
    nodes.write_text(inputs.nodes_csv)
    edges.write_text(inputs.edges_csv)
    gs = Graphsurge(**cfg["system"])
    gs.load_graph("g", nodes, edges)
    return gs


def run_facade(gs: Graphsurge, cfg: dict, inputs: Inputs,
               mode: ExecutionMode = ExecutionMode.ADAPTIVE, sink=None
               ) -> Tuple[float, float, list]:
    """``execute`` then ``run_analytics`` per computation; returns
    (define_s, run_s, [CollectionRunResult])."""
    started = time.perf_counter()
    gs.execute(inputs.gvdl)
    defined = time.perf_counter()
    results = [
        gs.run_analytics(COMPUTATIONS[name][0](), "c", mode=mode,
                         cost_metric="work", keep_outputs=True, tracer=sink)
        for name in cfg["computations"]]
    return defined - started, time.perf_counter() - defined, results


def facade_parts(results: list) -> List[dict]:
    return [dict(work=r.total_work, parallel_time=r.total_parallel_time,
                 split_points=list(r.split_points),
                 views=[(v.view_name, v.output) for v in r.views])
            for r in results]


def counters(parts: List[dict]) -> dict:
    """The figures a traced run must reproduce exactly; ``parts`` is one
    dict per computation, from ``facade_parts`` or ``traced_run``."""
    h = hashlib.sha256()
    for part in parts:
        for view_name, output in part["views"]:
            h.update(repr((view_name, sorted(output.items()))).encode())
    return {
        "total_work": sum(p["work"] for p in parts),
        "total_parallel_time": sum(p["parallel_time"] for p in parts),
        "split_points": [p["split_points"] for p in parts],
        "output_digest": h.hexdigest(),
    }


def verify(cfg: dict, inputs: Inputs, results: list) -> Tuple[int, int]:
    """Every view of every computation against the oracle; returns
    (views checked, views wrong)."""
    attempted = failed = 0
    view_edges = inputs.view_edges()
    for name, result in zip(cfg["computations"], results):
        reference = COMPUTATIONS[name][1]
        seen = set()
        for view in result.views:
            attempted += 1
            seen.add(view.view_name)
            expected = oracle.as_records(
                reference(view_edges[view.view_name]))
            failed += view.output != expected
        missing = set(view_edges) - seen
        attempted += len(missing)
        failed += len(missing)
    return attempted, failed


def rep(cfg: dict, seed: int, workdir: Path, tr: Tracer) -> dict:
    """One untraced rep: set up, time define+run, check after the clock."""
    del tr  # the facade is driven whole; spans belong to traced_rep
    started = time.perf_counter()
    inputs = Inputs(cfg, seed)
    gs = load(cfg, inputs, workdir)
    setup_s = time.perf_counter() - started
    define_s, run_s, results = run_facade(gs, cfg, inputs)
    attempted, failed = verify(cfg, inputs, results)
    views = sum(len(r.views) for r in results)
    return {
        "setup_s": setup_s, "run_s": define_s + run_s, "items": views,
        "attempted": attempted, "failed": failed,
        "peak_rss_mb": peak_rss_mb(), "digest": inputs.digest,
        "counts": counters(facade_parts(results)),
    }


# -- the traced pipeline ------------------------------------------------------

def traced_define(tr: Tracer, gs: Graphsurge, inputs: Inputs):
    """``Graphsurge.execute`` for one collection statement, layer by layer."""
    from repro.core.diff_stream import (
        compute_diff_stream, diff_sizes, view_sizes_from_diffs)
    from repro.core.ebm import build_ebm
    from repro.core.ordering.optimizer import order_collection
    from repro.core.view_collection import MaterializedCollection
    from repro.gvdl.parser import parse_program
    from repro.gvdl.predicate import compile_predicate
    from repro.timely.meter import WorkMeter

    graph = gs.resolve("g")
    with tr.span("define", "core.executor"):
        with tr.span("gvdl.parse", "gvdl"):
            (statement,) = parse_program(inputs.gvdl)
        names = [name for name, _pred in statement.views]
        predicates = [pred for _name, pred in statement.views]
        with tr.span("gvdl.compile", "gvdl"):
            # build_ebm compiles internally; this extra pass only sizes it.
            for predicate in predicates:
                compile_predicate(predicate, graph.edge_schema,
                                  graph.node_schema)
        meter = WorkMeter(gs.workers)
        with tr.span("ebm.build", "core.ebm"):
            ebm = build_ebm(graph, names, predicates, meter=meter,
                            workers=gs.workers)
        ordering = None
        if gs.order_collections != "identity":
            with tr.span("ordering.order", "core.ordering"):
                ordering = order_collection(
                    ebm.matrix, method=gs.order_collections,
                    workers=gs.workers, meter=meter)
                ebm = ebm.reorder(ordering.order)
        with tr.span("diff_stream.compute", "core.diff_stream"):
            diffs = compute_diff_stream(ebm, meter=meter)
            collection = MaterializedCollection(
                name=statement.name, source=statement.source,
                view_names=list(ebm.view_names), diffs=diffs,
                view_sizes=view_sizes_from_diffs(diffs),
                diff_sizes=diff_sizes(diffs), creation_seconds=0.0,
                ordering=ordering, ebm=ebm)
    return collection


def traced_run(tr: Tracer, computation, collection, workers: int,
               backend: str) -> dict:
    """``AnalyticsExecutor.run_on_collection`` (adaptive, work-costed,
    outputs kept) for one computation, layer by layer."""
    from repro.core.splitting.optimizer import AdaptiveSplitter, SplitDecision
    from repro.differential.dataflow import Dataflow
    from repro.differential.debug import operator_record_counts
    from repro.graph.edge_stream import edge_diff_to_input

    part = dict(views=[], split_points=[], work=0, parallel_time=0,
                supersteps=0, builds=0, worker_rss_mb=0.0)
    splitter = AdaptiveSplitter(batch_size=10)
    dataflow = capture = None
    directed = computation.directed
    try:
        with tr.span("run", "core.executor"):
            for index in range(collection.num_views):
                size = collection.view_sizes[index]
                diff_size = collection.diff_sizes[index]
                with tr.span("splitting.decide", "core.splitting"):
                    strategy = splitter.decide(index, size, diff_size)
                scratch = strategy is SplitDecision.SCRATCH
                if scratch:
                    with tr.span("executor.build", "core.executor"):
                        if dataflow is not None:
                            dataflow.close()
                        dataflow = Dataflow(workers=workers, backend=backend)
                        built = computation.build(
                            dataflow, dataflow.new_input("edges"))
                        capture = dataflow.capture(built, "results")
                    part["builds"] += 1
                    if index > 0:
                        part["split_points"].append(index)
                    with tr.span("graph.edge_input", "graph"):
                        feed = edge_diff_to_input(
                            collection.full_view_edges(index),
                            directed=directed)
                else:
                    with tr.span("graph.edge_input", "graph"):
                        feed = collection.input_diff_for_view(
                            index, directed=directed)
                before = dataflow.meter.snapshot()
                with tr.span("differential.step", "differential"):
                    epoch = dataflow.step({"edges": feed})
                spent = before.delta(dataflow.meter.snapshot())
                with tr.span("differential.output_read", "differential"):
                    capture.diff_at((epoch,))
                    output = capture.value_at_epoch(epoch)
                with tr.span("splitting.observe", "core.splitting"):
                    observe = (splitter.observe_scratch if scratch
                               else splitter.observe_differential)
                    observe(size if scratch else diff_size,
                            float(spent.total_work))
                part["work"] += spent.total_work
                part["parallel_time"] += spent.parallel_time
                part["supersteps"] += spent.supersteps
                part["views"].append((collection.view_names[index], output))
            with tr.span("differential.trace_records", "differential"):
                part["trace_records"] = sum(
                    operator_record_counts(dataflow).values())
            for worker in multiprocessing.active_children():
                part["worker_rss_mb"] = max(part["worker_rss_mb"],
                                            peak_rss_mb(worker.pid))
            with tr.span("executor.close", "core.executor"):
                dataflow.close()
    finally:
        if dataflow is not None:
            dataflow.close()  # idempotent; reaps workers if a view raised
    return part


def traced_rep(cfg: dict, seed: int, workdir: Path, tr: Tracer) -> dict:
    """One traced rep; ``values`` holds the per-layer figures."""
    inputs = Inputs(cfg, seed)
    first_span = len(tr.spans)
    with tr.run(f"batch:{seed}"):
        with tr.span("graph.load_csv", "graph"):
            gs = load(cfg, inputs, workdir)
        collection = traced_define(tr, gs, inputs)
        runs = [traced_run(tr, COMPUTATIONS[c][0](), collection, gs.workers,
                           gs.backend) for c in cfg["computations"]]
    spans = tr.spans[first_span:]
    root = spans[0]
    traced_wall = (root["end"] - root["start"]) - total(spans,
                                                        "graph.load_csv")

    # The untraced facade on the same loaded graph: the trace must agree.
    define_s, run_s, results = run_facade(load(cfg, inputs, workdir),
                                          cfg, inputs)
    reference, traced = counters(facade_parts(results)), counters(runs)
    attempted, failed = verify(cfg, inputs, results)
    void = (f"traced run disagrees with the facade: {traced} != {reference}"
            if traced != reference else None)
    own_by_span = self_times(spans)
    unattributed = sum(own_by_span[s["id"]] for s in spans
                       if s["name"] in (root["name"], "define", "run"))

    step_s = total(spans, "differential.step")
    ebm_s = total(spans, "ebm.build")
    views = inputs.views
    work = traced["total_work"]
    ordering = collection.ordering
    own = layer_self_times(spans)
    out = {
        "op_ms_p50": statistics.median(
            v.wall_seconds * 1e3 for r in results for v in r.views),
        "define_s": total(spans, "define"),
        "gvdl.parse_s": total(spans, "gvdl.parse"),
        "gvdl.compile_s": total(spans, "gvdl.compile"),
        "gvdl.predicate_evals": inputs.edges * views,
        "graph.load_csv_s": total(spans, "graph.load_csv"),
        "graph.edge_input_s": total(spans, "graph.edge_input"),
        "graph.edges": inputs.edges,
        "core.ebm.build_s": ebm_s,
        "core.ebm.cells_per_s": inputs.edges * views / ebm_s,
        "core.ordering.order_s": total(spans, "ordering.order"),
        "core.ordering.diffs_saved_frac": (
            1 - ordering.diff_count / ordering.identity_diff_count
            if ordering is not None else 0.0),
        "core.diff_stream.compute_s": total(spans, "diff_stream.compute"),
        "core.diff_stream.total_diffs": collection.total_diffs,
        "core.splitting.decide_s": own.get("core.splitting", 0.0),
        "core.splitting.splits": sum(len(r["split_points"]) for r in runs),
        "core.executor.build_s": total(spans, "executor.build"),
        "core.executor.dataflow_builds": sum(r["builds"] for r in runs),
        "core.executor.self_s": own.get("core.executor", 0.0)
        - total(spans, "executor.build"),
        "differential.step_s": step_s,
        "differential.work": work,
        "differential.parallel_time": traced["total_parallel_time"],
        "differential.work_per_s": work / step_s,
        "differential.trace_records": sum(r["trace_records"] for r in runs),
        "differential.output_read_s": total(
            spans, "differential.output_read"),
        "timely.supersteps": sum(r["supersteps"] for r in runs),
        "timely.worker_rss_mb": max(r["worker_rss_mb"] for r in runs),
        "perf.trace_overhead_frac": traced_wall / (define_s + run_s),
    }
    out.update(extra_runs(cfg, inputs, workdir, run_s, work))
    return {
        "values": out, "void": void, "attempted": attempted,
        "failed": failed, "digest": inputs.digest,
        "counts": dict(traced, coverage=1 - unattributed
                       / (root["end"] - root["start"])),
    }


def per_layer(samples: List[dict], tr: Tracer) -> dict:
    """Median over the traced reps of every figure."""
    del tr
    return {name: statistics.median(s["values"][name] for s in samples)
            for name in samples[0]["values"]}


def extra_runs(cfg: dict, inputs: Inputs, workdir: Path, run_s: float,
               adaptive_work: int) -> dict:
    """Figures that each cost a whole further run of the collection."""
    from repro.observe import TraceSink

    out = {}
    best = min(
        sum(r.total_work for r in run_facade(
            load(cfg, inputs, workdir), cfg, inputs, mode=mode)[2])
        for mode in (ExecutionMode.DIFF_ONLY, ExecutionMode.SCRATCH))
    out["core.splitting.adaptive_over_best"] = adaptive_work / best

    gs = load(cfg, inputs, workdir)
    sunk_s = run_facade(gs, cfg, inputs, sink=TraceSink(gs.workers))[1]
    out["observe.trace_overhead_frac"] = sunk_s / run_s

    started = time.perf_counter()
    for name in cfg["computations"]:
        gs.analyze(COMPUTATIONS[name][0](), stream=True)
    out["analyze.gate_s"] = time.perf_counter() - started

    if cfg["system"].get("backend") == "process":
        from repro.timely.cluster import ProcessCluster

        inline = dict(cfg, system=dict(cfg["system"], backend="inline"))
        inline_s = run_facade(load(inline, inputs, workdir), inline,
                              inputs)[1]
        out["timely.process_over_inline"] = run_s / inline_s
        started = time.perf_counter()
        cluster = ProcessCluster(cfg["system"]["workers"], {})
        try:
            cluster.stats()  # one round trip: every worker is up
            out["timely.spawn_s"] = time.perf_counter() - started
        finally:
            cluster.close()
    return out
