"""The fuzzer's checks: oracle cross-validation plus the metamorphic
invariants Graphsurge's contract promises but hand-written tests rarely
cover together.

Every check has the same shape — ``check_*(collection, spec, params,
...) -> Optional[Mismatch]`` — and records enough in ``Mismatch.check``
to be re-run verbatim by the shrinker and the repro replayer
(:func:`build_check`). A check returning ``None`` means the invariant
held.

Invariants:

* **oracle** — each view's output under one :class:`ExecutionMode`
  equals the plain-Python reference on that view's full edge list.
* **workers** — per-view outputs and total work are identical across
  simulated worker counts (sharding changes parallel time only).
* **backend** — per-view outputs and *both* metered counters are
  byte-identical between the inline and process execution backends
  (see ``docs/parallel.md``): moving shards onto real OS processes is
  purely an execution-strategy change.
* **permutation** — running the ordering optimizer's permuted collection
  yields the same output per view *name*.
* **checkpoint** — kill the run at a view boundary via
  :class:`FaultPlan`, resume from the journal, and require byte-identical
  per-view outputs versus the uninterrupted run.
* **tracing** — attaching a :class:`TraceSink` never changes outputs or
  the metered counters.
* **analysis** — the static analyzer's verdict (see :mod:`repro.analyze`)
  is a pure function of the plan: an analyzer-clean plan stays clean
  after executing it and under view-order permutation, and re-analyzing
  an executed dataflow reports the same findings as the pristine one.
* **stream** — driving the collection's difference sets through the
  streaming engine (:mod:`repro.stream`) one batch per epoch yields, at
  *every* epoch, exactly the from-scratch result on the accumulated
  edges — and the per-epoch outputs and meter rows are byte-identical
  across the inline and process backends.
* **sanitize** — a ``sanitize=True`` process-backend run (the shadow
  sanitizer, :mod:`repro.verify.sanitize`) of a clean plan never fires
  and leaves outputs and both metered counters byte-identical to an
  unsanitized process run: the shadow observes, never perturbs.
* **engine** — after every epoch of an inline differential run, the
  engine's own identities hold inside it: every reduce's stored output
  re-derives from its input (``check_consistency``), no trace stores a
  zero (``check_consolidated``) and every cached accumulation equals a
  scan of its entries (``check_caches``). Outputs can stay right while
  these break, so no output oracle sees them.

A check that raises instead of returning (an engine defect surfacing
as an exception) still ends as a :class:`Mismatch`: :func:`build_check`,
which the fuzz loop, the shrinker and the replayer all call through,
turns the escaped exception into one.
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Optional, Sequence

from repro.core.executor import AnalyticsExecutor, ExecutionMode
from repro.core.resilience import FaultPlan
from repro.core.view_collection import (
    MaterializedCollection,
    reorder_collection,
)
from repro.errors import GraphsurgeError, InjectedFault
from repro.verify.oracles import (
    AlgorithmSpec,
    canonical_diff,
    describe_map_mismatch,
    output_map,
    view_edge_list,
)

#: Invariant names understood by :func:`build_check` / the repro replayer.
INVARIANTS = ("oracle", "workers", "backend", "permutation", "checkpoint",
              "tracing", "analysis", "stream", "sanitize", "engine")


@dataclass
class Mismatch:
    """One violated invariant, with everything needed to re-run it."""

    invariant: str
    algorithm: str
    detail: str
    view: Optional[str] = None
    #: Keyword arguments that pin the exact failing check (mode, worker
    #: counts, kill site, permutation seed) for shrink/replay.
    check: Dict[str, Any] = field(default_factory=dict)

    def __str__(self) -> str:
        where = f" view {self.view!r}" if self.view else ""
        return (f"[{self.invariant}] {self.algorithm}{where}: "
                f"{self.detail}")


def _run(collection: MaterializedCollection, spec: AlgorithmSpec,
         params: dict, mode: ExecutionMode, workers: int = 1,
         tracer=None, backend: str = "inline", sanitize: bool = False,
         **kwargs):
    executor = AnalyticsExecutor(workers=workers, tracer=tracer,
                                 backend=backend, sanitize=sanitize)
    return executor.run_on_collection(
        spec.computation(params), collection, mode=mode,
        keep_outputs=True, cost_metric="work", **kwargs)


# -- oracle ------------------------------------------------------------------


def check_oracle(collection: MaterializedCollection, spec: AlgorithmSpec,
                 params: dict, mode: ExecutionMode,
                 workers: int = 1) -> Optional[Mismatch]:
    """Every view's output equals the reference on its full edge list."""
    check = {"invariant": "oracle", "mode": mode.value, "workers": workers}
    try:
        result = _run(collection, spec, params, mode, workers=workers)
        for index in range(collection.num_views):
            triples = view_edge_list(collection, index)
            want = spec.expected(triples, params)
            got = output_map(result.views[index].output)
            detail = describe_map_mismatch(got, want)
            if detail is not None:
                return Mismatch("oracle", spec.name, detail,
                                view=collection.view_names[index],
                                check=check)
    except GraphsurgeError as error:
        return Mismatch("oracle", spec.name,
                        f"{type(error).__name__}: {error}", check=check)
    return None


# -- worker-count invariance -------------------------------------------------


def check_workers(collection: MaterializedCollection, spec: AlgorithmSpec,
                  params: dict,
                  worker_counts: Sequence[int] = (1, 4)
                  ) -> Optional[Mismatch]:
    """Outputs and total work must not depend on the shard count."""
    check = {"invariant": "workers", "worker_counts": list(worker_counts)}
    baseline = None
    for workers in worker_counts:
        result = _run(collection, spec, params, ExecutionMode.DIFF_ONLY,
                      workers=workers)
        outputs = [canonical_diff(view.output) for view in result.views]
        if baseline is None:
            baseline = (worker_counts[0], outputs, result.total_work)
            continue
        base_workers, base_outputs, base_work = baseline
        if result.total_work != base_work:
            return Mismatch(
                "workers", spec.name,
                f"total_work {result.total_work} with workers={workers} "
                f"!= {base_work} with workers={base_workers}", check=check)
        for index, (got, want) in enumerate(zip(outputs, base_outputs)):
            if got != want:
                return Mismatch(
                    "workers", spec.name,
                    f"outputs differ between workers={base_workers} and "
                    f"workers={workers}",
                    view=collection.view_names[index], check=check)
    return None


# -- backend invariance ------------------------------------------------------


def check_backends(collection: MaterializedCollection, spec: AlgorithmSpec,
                   params: dict,
                   backends: Sequence[str] = ("inline", "process"),
                   workers: int = 2) -> Optional[Mismatch]:
    """Inline and process backends are observationally identical.

    Stronger than :func:`check_workers`: not just outputs and total work
    but also ``total_parallel_time`` must match byte-for-byte, because
    the process backend replays the workers' meter events on the
    coordinator in the original order.
    """
    check = {"invariant": "backend", "backends": list(backends),
             "workers": workers}
    baseline = None
    for backend in backends:
        result = _run(collection, spec, params, ExecutionMode.DIFF_ONLY,
                      workers=workers, backend=backend)
        outputs = [canonical_diff(view.output) for view in result.views]
        observed = (result.total_work, result.total_parallel_time)
        if baseline is None:
            baseline = (backend, outputs, observed)
            continue
        base_backend, base_outputs, base_observed = baseline
        if observed != base_observed:
            return Mismatch(
                "backend", spec.name,
                f"(work, parallel_time) {observed} with backend={backend} "
                f"!= {base_observed} with backend={base_backend}",
                check=check)
        for index, (got, want) in enumerate(zip(outputs, base_outputs)):
            if got != want:
                return Mismatch(
                    "backend", spec.name,
                    f"outputs differ between backend={base_backend} and "
                    f"backend={backend}",
                    view=collection.view_names[index], check=check)
    return None


# -- view-order permutation --------------------------------------------------


def check_permutation(collection: MaterializedCollection,
                      spec: AlgorithmSpec, params: dict,
                      perm_seed: int = 0,
                      order_method: str = "random") -> Optional[Mismatch]:
    """The ordering optimizer may change cost, never per-view results."""
    check = {"invariant": "permutation", "perm_seed": perm_seed,
             "order_method": order_method}
    if collection.num_views < 2 or collection.total_diffs == 0:
        return None
    baseline = _run(collection, spec, params, ExecutionMode.DIFF_ONLY)
    permuted_collection = reorder_collection(
        collection, order_method=order_method, seed=perm_seed)
    permuted = _run(permuted_collection, spec, params,
                    ExecutionMode.DIFF_ONLY)
    base_by_name = baseline.outputs_by_view()
    perm_by_name = permuted.outputs_by_view()
    if sorted(base_by_name) != sorted(perm_by_name):
        return Mismatch(
            "permutation", spec.name,
            f"view names changed under reordering: "
            f"{sorted(base_by_name)} vs {sorted(perm_by_name)}",
            check=check)
    for name in base_by_name:
        if canonical_diff(base_by_name[name]) != \
                canonical_diff(perm_by_name[name]):
            detail = describe_map_mismatch(
                output_map(perm_by_name[name]),
                output_map(base_by_name[name]))
            return Mismatch("permutation", spec.name,
                            detail or "outputs differ", view=name,
                            check=check)
    return None


# -- checkpoint / kill / resume ----------------------------------------------


def check_checkpoint(collection: MaterializedCollection,
                     spec: AlgorithmSpec, params: dict,
                     kill_at: int = 1) -> Optional[Mismatch]:
    """Kill at the ``kill_at``-th view boundary, resume, compare outputs.

    ``kill_at`` indexes the dataflow's epoch invocations under DIFF_ONLY
    (one per view); resumed per-view outputs must be byte-identical to an
    uninterrupted run's.
    """
    check = {"invariant": "checkpoint", "kill_at": kill_at}
    if collection.num_views < 2:
        return None
    kill_at = kill_at % collection.num_views
    baseline = _run(collection, spec, params, ExecutionMode.DIFF_ONLY)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.ckpt"
        plan = FaultPlan.single("epoch", kill_at)
        try:
            _run(collection, spec, params, ExecutionMode.DIFF_ONLY,
                 checkpoint_path=path, fault_plan=plan)
            return Mismatch(
                "checkpoint", spec.name,
                f"planned kill at epoch {kill_at} never fired "
                f"({collection.num_views} views)", check=check)
        except InjectedFault:
            pass
        resumed = _run(collection, spec, params, ExecutionMode.DIFF_ONLY,
                       resume_from=path)
    if resumed.resumed_views != kill_at:
        return Mismatch(
            "checkpoint", spec.name,
            f"resume restored {resumed.resumed_views} views, expected "
            f"{kill_at}", check=check)
    for index in range(collection.num_views):
        got = canonical_diff(resumed.views[index].output)
        want = canonical_diff(baseline.views[index].output)
        if got != want:
            return Mismatch(
                "checkpoint", spec.name,
                "resumed output differs from uninterrupted run",
                view=collection.view_names[index], check=check)
    return None


# -- tracing on/off ----------------------------------------------------------


def check_tracing(collection: MaterializedCollection, spec: AlgorithmSpec,
                  params: dict) -> Optional[Mismatch]:
    """A TraceSink must observe, never perturb."""
    from repro.observe import TraceSink

    check = {"invariant": "tracing"}
    plain = _run(collection, spec, params, ExecutionMode.DIFF_ONLY)
    traced = _run(collection, spec, params, ExecutionMode.DIFF_ONLY,
                  tracer=TraceSink(1))
    if (traced.total_work, traced.total_parallel_time) != \
            (plain.total_work, plain.total_parallel_time):
        return Mismatch(
            "tracing", spec.name,
            f"counters changed under tracing: work "
            f"{plain.total_work}->{traced.total_work}, parallel time "
            f"{plain.total_parallel_time}->{traced.total_parallel_time}",
            check=check)
    for index in range(collection.num_views):
        if canonical_diff(plain.views[index].output) != \
                canonical_diff(traced.views[index].output):
            return Mismatch("tracing", spec.name,
                            "outputs changed under tracing",
                            view=collection.view_names[index], check=check)
    return None


# -- static-analysis stability -----------------------------------------------


def check_analysis(collection: MaterializedCollection, spec: AlgorithmSpec,
                   params: dict, perm_seed: int = 0) -> Optional[Mismatch]:
    """The analyzer's verdict is a pure function of the plan.

    Three statements, all falsifiable here: the built-in plans are
    analyzer-clean (no ERROR findings); re-analyzing the *same* dataflow
    after executing it reports identical findings (the passes read only
    the operator DAG, never runtime state); and rebuilding + re-running
    under a permuted view order leaves a fresh plan's verdict unchanged.
    """
    from repro.analyze import analyze, analyze_computation
    from repro.core.resident import build_plan
    from repro.graph.edge_stream import EdgeStream

    check = {"invariant": "analysis", "perm_seed": perm_seed}
    computation = spec.computation(params)
    dataflow, _capture = build_plan(computation)
    before = analyze(dataflow)
    if not before.ok:
        head = before.errors()[0]
        return Mismatch(
            "analysis", spec.name,
            f"plan has {len(before.errors())} ERROR finding(s); first: "
            f"{head.rule} {head.operator}: {head.message}", check=check)
    stream = EdgeStream(list(collection.full_view_edges(0)))
    dataflow.step(
        {"edges": stream.as_input_diff(directed=computation.directed)})
    executed = analyze(dataflow)
    if executed.to_dict() != before.to_dict():
        return Mismatch(
            "analysis", spec.name,
            "re-analyzing the executed dataflow changed the verdict "
            "(analysis must not read runtime state)", check=check)
    if collection.num_views >= 2 and collection.total_diffs > 0:
        permuted = reorder_collection(collection, order_method="random",
                                      seed=perm_seed)
        _run(permuted, spec, params, ExecutionMode.DIFF_ONLY)
        rebuilt = analyze_computation(computation)
        if rebuilt.to_dict() != before.to_dict():
            return Mismatch(
                "analysis", spec.name,
                "analyzer verdict changed under view-order permutation",
                check=check)
    return None


# -- streaming equivalence ---------------------------------------------------


def check_stream(collection: MaterializedCollection, spec: AlgorithmSpec,
                 params: dict,
                 backends: Sequence[str] = ("inline", "process"),
                 workers: int = 2) -> Optional[Mismatch]:
    """Streamed results equal from-scratch at every epoch, per backend.

    The collection's difference sets become a batch stream
    (:func:`repro.stream.source.batches_from_collection`); after the
    engine absorbs batch ``i``, its accumulated edges are view ``i``'s
    full edge multiset, so the on-demand snapshot must equal the plain
    reference on that view's edge list. Across backends the per-epoch
    output deltas and deterministic meter figures (work, parallel time —
    never wall-clock latency) must match byte-for-byte at the same
    worker count.
    """
    from repro.stream import StreamEngine, batches_from_collection

    check = {"invariant": "stream", "backends": list(backends),
             "workers": workers}
    batches = batches_from_collection(collection)
    if not batches:
        return None
    baseline = None
    for backend in backends:
        engine = StreamEngine(workers=workers, backend=backend)
        try:
            try:
                signature = engine.register(spec.name, params)
            except GraphsurgeError:
                return None  # not servable as a continuous query; vacuous
            snapshots = []
            for index, batch in enumerate(batches):
                engine.ingest(batch)
                snapshot = engine.snapshot(signature)
                want = spec.expected(view_edge_list(collection, index),
                                     params)
                detail = describe_map_mismatch(output_map(snapshot), want)
                if detail is not None:
                    return Mismatch(
                        "stream", spec.name,
                        f"epoch {engine.epoch} backend={backend}: {detail}",
                        view=collection.view_names[index], check=check)
                snapshots.append(canonical_diff(snapshot))
            meter_rows = [(m.epoch, m.delta_records, m.output_delta_size,
                           m.work, m.parallel_time)
                          for m in engine.meter.epochs]
        except GraphsurgeError as error:
            return Mismatch(
                "stream", spec.name,
                f"backend={backend}: {type(error).__name__}: {error}",
                check=check)
        finally:
            engine.close()
        if baseline is None:
            baseline = (backend, snapshots, meter_rows)
            continue
        base_backend, base_snapshots, base_rows = baseline
        if meter_rows != base_rows:
            first = next((i for i, (got, want)
                          in enumerate(zip(meter_rows, base_rows))
                          if got != want), len(base_rows))
            return Mismatch(
                "stream", spec.name,
                f"per-epoch meter rows diverge at epoch {first + 1} "
                f"between backend={base_backend} and backend={backend}",
                check=check)
        if snapshots != base_snapshots:
            return Mismatch(
                "stream", spec.name,
                f"per-epoch snapshots differ between "
                f"backend={base_backend} and backend={backend}",
                check=check)
    return None


# -- shadow sanitizer --------------------------------------------------------


def check_sanitize(collection: MaterializedCollection, spec: AlgorithmSpec,
                   params: dict, workers: int = 2) -> Optional[Mismatch]:
    """The shadow sanitizer observes, never fires, never perturbs.

    A ``sanitize=True`` run of an analyzer-clean plan on the process
    backend must complete without :class:`~repro.errors.SanitizerError`
    (the backends really are observationally equal, so the shadow diff
    finds nothing) and must leave per-view outputs, ``total_work``, and
    ``parallel_time`` byte-identical to an unsanitized process run — the
    shadow executes on its own meter and trace sinks.
    """
    from repro.errors import SanitizerError

    check = {"invariant": "sanitize", "workers": workers}
    plain = _run(collection, spec, params, ExecutionMode.DIFF_ONLY,
                 workers=workers, backend="process")
    try:
        shadowed = _run(collection, spec, params, ExecutionMode.DIFF_ONLY,
                        workers=workers, backend="process", sanitize=True)
    except SanitizerError as error:
        return Mismatch(
            "sanitize", spec.name,
            f"shadow sanitizer fired on a clean plan: {error}", check=check)
    if (shadowed.total_work, shadowed.total_parallel_time) != \
            (plain.total_work, plain.total_parallel_time):
        return Mismatch(
            "sanitize", spec.name,
            f"counters changed under sanitize: work "
            f"{plain.total_work}->{shadowed.total_work}, parallel time "
            f"{plain.total_parallel_time}->{shadowed.total_parallel_time}",
            check=check)
    for index in range(collection.num_views):
        if canonical_diff(plain.views[index].output) != \
                canonical_diff(shadowed.views[index].output):
            return Mismatch("sanitize", spec.name,
                            "outputs changed under sanitize",
                            view=collection.view_names[index], check=check)
    return None


# -- engine identities -------------------------------------------------------


def check_engine(collection: MaterializedCollection, spec: AlgorithmSpec,
                 params: dict) -> Optional[Mismatch]:
    """The engine's internal identities hold after every epoch.

    Steps one inline dataflow through the collection's difference sets
    (the differential mode's epochs) and runs the three trace checkers
    of :mod:`repro.differential.debug` after each one; the first
    violation is reported with its epoch and view.
    """
    from repro.core.resident import build_plan
    from repro.differential.debug import (
        check_caches,
        check_consistency,
        check_consolidated,
    )

    check = {"invariant": "engine"}
    computation = spec.computation(params)
    dataflow, _capture = build_plan(computation)
    for index in range(collection.num_views):
        dataflow.step({"edges": collection.input_diff_for_view(
            index, directed=computation.directed)})
        problems = (check_consolidated(dataflow) + check_caches(dataflow)
                    + check_consistency(dataflow))
        if problems:
            more = f" (+{len(problems) - 1} more)" if len(problems) > 1 \
                else ""
            return Mismatch("engine", spec.name,
                            f"epoch {dataflow.epoch}: {problems[0]}{more}",
                            view=collection.view_names[index], check=check)
    return None


# -- dispatch for shrink / replay --------------------------------------------


def build_check(spec: AlgorithmSpec, params: dict, check: Dict[str, Any]
                ) -> Callable[[MaterializedCollection], Optional[Mismatch]]:
    """A re-runnable closure for the exact check a ``Mismatch`` recorded.

    The closure never raises: an exception escaping the check is itself
    the mismatch, so an engine defect that crashes a run is still shrunk
    and written as a replayable repro.
    """
    run = _dispatch(spec, params, check)

    def guarded(collection: MaterializedCollection) -> Optional[Mismatch]:
        try:
            return run(collection)
        except Exception as error:
            return Mismatch(check["invariant"], spec.name,
                            f"{type(error).__name__} escaped the check: "
                            f"{error}", check=dict(check))

    return guarded


def _dispatch(spec: AlgorithmSpec, params: dict, check: Dict[str, Any]
              ) -> Callable[[MaterializedCollection], Optional[Mismatch]]:
    invariant = check.get("invariant")
    if invariant == "oracle":
        mode = ExecutionMode(check["mode"])
        workers = int(check.get("workers", 1))
        return lambda collection: check_oracle(collection, spec, params,
                                               mode, workers=workers)
    if invariant == "workers":
        counts = tuple(check.get("worker_counts", (1, 4)))
        return lambda collection: check_workers(collection, spec, params,
                                                worker_counts=counts)
    if invariant == "backend":
        backends = tuple(check.get("backends", ("inline", "process")))
        workers = int(check.get("workers", 2))
        return lambda collection: check_backends(
            collection, spec, params, backends=backends, workers=workers)
    if invariant == "permutation":
        seed = int(check.get("perm_seed", 0))
        method = check.get("order_method", "random")
        return lambda collection: check_permutation(
            collection, spec, params, perm_seed=seed, order_method=method)
    if invariant == "checkpoint":
        kill_at = int(check.get("kill_at", 1))
        return lambda collection: check_checkpoint(collection, spec, params,
                                                   kill_at=kill_at)
    if invariant == "tracing":
        return lambda collection: check_tracing(collection, spec, params)
    if invariant == "analysis":
        seed = int(check.get("perm_seed", 0))
        return lambda collection: check_analysis(collection, spec, params,
                                                 perm_seed=seed)
    if invariant == "stream":
        backends = tuple(check.get("backends", ("inline", "process")))
        workers = int(check.get("workers", 2))
        return lambda collection: check_stream(
            collection, spec, params, backends=backends, workers=workers)
    if invariant == "sanitize":
        workers = int(check.get("workers", 2))
        return lambda collection: check_sanitize(
            collection, spec, params, workers=workers)
    if invariant == "engine":
        return lambda collection: check_engine(collection, spec, params)
    raise GraphsurgeError(f"unknown invariant {invariant!r}; expected one "
                          f"of {INVARIANTS}")
