"""The Analytics Computation Executor (paper §3.2.2, §5).

Runs a :class:`GraphComputation` over a materialized view collection under
one of three policies:

* ``DIFF_ONLY`` — one dataflow instance; each view's edge difference set is
  fed as the next epoch, so the engine shares computation across views.
* ``SCRATCH`` — a fresh dataflow per view fed the full view. Iterative
  computations still run differentially *across their own iterations* (that
  is inherent to the engine), but nothing is shared between views.
* ``ADAPTIVE`` — the splitting optimizer picks per batch of views.

Each run drives one :class:`~repro.core.resident.ResidentDataflow` (the
epoch driver, ``docs/engine.md``): a differential view is
``advance_by(view diff)``, a scratch view ``reset()`` +
``advance_by(full view)``. Building, feeding, failing and releasing the
dataflow all live there; this module decides *what* to feed.

Long collection runs are made fault tolerant by the resilience layer
(:mod:`repro.core.resilience`): pass ``checkpoint_path=`` to journal every
completed view, ``resume_from=`` to restart an interrupted run at view *k*
instead of view 0, ``budget=`` to bound wall time / work / fixed-point
iterations, and ``retry_policy=`` to retry failing views and degrade a
persistently failing differential view to a from-scratch run.
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.core.computation import GraphComputation
from repro.core.resident import ResidentDataflow
from repro.core.resilience import (
    CheckpointWriter,
    FaultPlan,
    RetryPolicy,
    RunBudget,
    collection_fingerprint,
    decode_diff,
    encode_diff,
    load_checkpoint,
)
from repro.core.splitting.optimizer import AdaptiveSplitter, SplitDecision
from repro.core.view_collection import MaterializedCollection
from repro.observe.profile import CollectionProfile, ViewProfile, \
    profile_view
from repro.observe.tracer import TraceSink
from repro.differential.multiset import Diff
from repro.errors import BudgetExceededError, CheckpointError, ComputationError
from repro.graph.edge_stream import EdgeStream, edge_diff_to_input


class ExecutionMode(enum.Enum):
    DIFF_ONLY = "diff-only"
    SCRATCH = "scratch"
    ADAPTIVE = "adaptive"


@dataclass
class ViewRunResult:
    """Cost and output of the computation on one view."""

    view_name: str
    strategy: SplitDecision
    wall_seconds: float
    work: int
    parallel_time: int
    view_size: int
    diff_size: int
    output_diff_size: int
    output: Optional[Diff] = field(default=None, repr=False)
    #: The per-view *output difference set* (paper §3.2.2: "The output
    #: difference stream can then be stored or processed by the user").
    #: Populated when the executor runs with ``keep_output_diffs=True``.
    #: Note: a view executed from scratch (strategy SCRATCH) restarts the
    #: stream — its "difference" is its full output, not a delta against
    #: the previous view.
    output_diff: Optional[Diff] = field(default=None, repr=False)
    #: Where this view's simulated time went, when the run was traced
    #: (see :mod:`repro.observe`): the critical path over the view's
    #: supersteps, whose length equals ``parallel_time`` exactly.
    profile: Optional["ViewProfile"] = field(default=None, repr=False)
    #: How many execution attempts this view took (1 = first try).
    attempts: int = 1
    #: True when the view was planned differential but degraded to a
    #: from-scratch run after repeated differential-mode failures.
    degraded: bool = False
    #: ``"ErrorType: message"`` for every failed attempt, in order.
    failures: List[str] = field(default_factory=list)

    def vertex_map(self) -> Dict[Any, Any]:
        """Render the accumulated output as ``{vertex: value}``.

        Raises if a vertex carries several values (use the raw ``output``
        for multi-valued computations).
        """
        if self.output is None:
            raise ComputationError("outputs were not kept for this run")
        out: Dict[Any, Any] = {}
        for (vertex, value), mult in self.output.items():
            if mult != 1 or vertex in out:
                raise ComputationError(
                    f"vertex {vertex!r} has a non-unique result")
            out[vertex] = value
        return out


@dataclass
class CollectionRunResult:
    """Outcome of running a computation across a whole collection."""

    computation: str
    collection: str
    mode: ExecutionMode
    views: List[ViewRunResult]
    total_wall_seconds: float
    total_work: int
    total_parallel_time: int
    split_points: List[int]
    #: How many leading views were restored from a checkpoint instead of
    #: being executed in this call (0 for a non-resumed run).
    resumed_views: int = 0
    #: Stored trace entries per operator at the end of the run (shared
    #: arrangements counted once, at their ArrangeOp). Shows trace-memory
    #: growth and the arrangement-sharing saving; feeds ``explain``.
    trace_memory: Optional[Dict[str, int]] = None
    #: Per-view critical-path profiles when the run was traced
    #: (``AnalyticsExecutor(tracer=...)``); ``None`` otherwise.
    profile: Optional["CollectionProfile"] = None

    def outputs_by_view(self) -> Dict[str, Diff]:
        """Kept per-view outputs keyed by view name.

        Requires the run to have used ``keep_outputs=True`` and the
        collection to have unique view names (both hold for every
        collection the verification harness generates).
        """
        out: Dict[str, Diff] = {}
        for view in self.views:
            if view.output is None:
                raise ComputationError(
                    f"outputs were not kept for view {view.view_name!r}")
            if view.view_name in out:
                raise ComputationError(
                    f"duplicate view name {view.view_name!r}")
            out[view.view_name] = view.output
        return out


class AnalyticsExecutor:
    """Drives computations over single views and view collections.

    Pass ``tracer=TraceSink(workers)`` to record the activity stream of
    every run (see :mod:`repro.observe`): each view's ``ViewRunResult``
    then carries a critical-path profile and the collection result a
    ``CollectionProfile``. Tracing never changes the metered counters.
    """

    def __init__(self, workers: int = 1,
                 tracer: Optional[TraceSink] = None,
                 strict: bool = False,
                 backend: str = "inline",
                 sanitize: bool = False):
        from repro.errors import ConfigError
        from repro.timely.cluster import validate_backend

        self.workers = workers
        validate_backend(backend, workers)
        #: Execution backend for every dataflow this executor builds:
        #: ``"inline"`` (default, single process) or ``"process"`` (one OS
        #: process per worker; see ``docs/parallel.md``). Counters and
        #: outputs are byte-identical between backends.
        self.backend = backend
        self.tracer = tracer
        #: Strict mode statically analyzes every plan at build time and
        #: refuses (``AnalysisError``) to run one with ERROR findings —
        #: before the epoch driver touches a single view. On
        #: ``backend="process"`` the analysis includes the shard-safety
        #: pass (``GS-S3xx``), so e.g. a kernel that fails the pickle
        #: probe is refused before any epoch executes.
        self.strict = strict
        if sanitize and backend != "process":
            raise ConfigError(
                "sanitize=True shadow-executes the process backend "
                "against an inline twin; it requires backend='process' "
                "(an inline run has nothing to diverge from)")
        #: Sanitize mode shadow-executes every epoch on an inline twin of
        #: the plan and raises :class:`~repro.errors.SanitizerError` at
        #: the first divergent (operator, timestamp, shard) address. See
        #: :mod:`repro.verify.sanitize`.
        self.sanitize = sanitize

    # -- single views -----------------------------------------------------------

    def run_on_view(self, computation: GraphComputation,
                    edges: EdgeStream,
                    view_name: str = "view",
                    budget: Optional[RunBudget] = None) -> ViewRunResult:
        """Run a computation on one materialized view (paper §3.1.2)."""
        started = time.perf_counter()
        resident = self._resident(computation, None)
        try:
            mark = self.tracer.mark() if self.tracer is not None else 0
            spent = resident.advance_by(
                edges.as_input_diff(directed=computation.directed),
                budget=budget, tracer=self.tracer).work
            output = resident.output()
        finally:
            resident.close()
        profile = None
        if self.tracer is not None:
            profile = profile_view(self.tracer, view_name, mark,
                                   self.tracer.mark())
        return ViewRunResult(
            view_name=view_name,
            strategy=SplitDecision.SCRATCH,
            wall_seconds=time.perf_counter() - started,
            work=spent.total_work,
            parallel_time=spent.parallel_time,
            view_size=len(edges),
            diff_size=len(edges),
            output_diff_size=len(output),
            output=output,
            profile=profile,
        )

    # -- collections --------------------------------------------------------------

    def run_on_collection(self, computation: GraphComputation,
                          collection: MaterializedCollection,
                          mode: ExecutionMode = ExecutionMode.ADAPTIVE,
                          batch_size: int = 10,
                          keep_outputs: bool = False,
                          keep_output_diffs: bool = False,
                          cost_metric: str = "wall",
                          checkpoint_path=None,
                          resume_from=None,
                          budget: Optional[RunBudget] = None,
                          retry_policy: Optional[RetryPolicy] = None,
                          fault_plan: Optional[FaultPlan] = None
                          ) -> CollectionRunResult:
        """Execute the computation across every view of the collection.

        ``cost_metric`` selects what feeds the adaptive cost models:
        ``wall`` (seconds, as the paper) or ``work`` (deterministic record
        counts — useful for reproducible tests).

        ``checkpoint_path`` journals every completed view; ``resume_from``
        loads such a journal, restores the completed prefix (results,
        splitter observations, split points), rebuilds dataflow state by
        replaying the collection's cumulative difference up to the resume
        index, and continues. When only ``resume_from`` is given, the run
        keeps journaling to the same file.
        """
        if cost_metric not in ("wall", "work"):
            raise ComputationError(f"unknown cost metric {cost_metric!r}")
        if budget is not None:
            budget.start()
        splitter = AdaptiveSplitter(batch_size=batch_size)
        results: List[ViewRunResult] = []
        split_points: List[int] = []
        resident = self._resident(computation, fault_plan)
        total_started = time.perf_counter()

        header = {
            "computation": computation.name,
            "collection": collection.name,
            "mode": mode.value,
            "cost_metric": cost_metric,
            "batch_size": batch_size,
            "keep_outputs": keep_outputs,
            "keep_output_diffs": keep_output_diffs,
            "num_views": collection.num_views,
            "fingerprint": collection_fingerprint(collection),
        }

        writer: Optional[CheckpointWriter] = None
        start_index = 0
        state = None
        if resume_from is not None:
            if checkpoint_path is None:
                checkpoint_path = resume_from
            state = load_checkpoint(resume_from)
        if state is not None:
            self._check_resume_header(state.header, header, resume_from)
            for record in state.views:
                # Replaying decide() + observe() in original order rebuilds
                # the splitter's models *and* batch state exactly.
                splitter.decide(record["index"], record["view_size"],
                                record["diff_size"])
                observation = record["observation"]
                if observation["kind"] == "scratch":
                    splitter.observe_scratch(observation["size"],
                                             observation["cost"])
                else:
                    splitter.observe_differential(observation["size"],
                                                  observation["cost"])
                results.append(self._result_from_record(record))
                if record["split"]:
                    split_points.append(record["index"])
            start_index = len(results)
            if 0 < start_index < collection.num_views:
                self._replay(resident, collection, start_index - 1, budget)

        try:
            if checkpoint_path is not None:
                if state is not None and str(state.path) == str(checkpoint_path):
                    writer = CheckpointWriter.resume(checkpoint_path, state,
                                                     fault_plan)
                else:
                    writer = CheckpointWriter.fresh(checkpoint_path, header,
                                                    fault_plan)
            for index in range(start_index, collection.num_views):
                view_size = collection.view_sizes[index]
                diff_size = collection.diff_sizes[index]
                planned = self._choose(mode, splitter, index, view_size,
                                       diff_size, resident)
                result = self._run_view_with_retries(
                    resident, collection, index, planned,
                    keep_outputs=keep_outputs,
                    keep_output_diffs=keep_output_diffs, budget=budget,
                    retry_policy=retry_policy)
                executed = result.strategy
                split = executed is SplitDecision.SCRATCH and index > 0
                if split:
                    split_points.append(index)
                results.append(result)
                cost = (result.wall_seconds if cost_metric == "wall"
                        else float(result.work))
                if executed is SplitDecision.SCRATCH:
                    observation = {"kind": "scratch", "size": view_size,
                                   "cost": cost}
                    splitter.observe_scratch(view_size, cost)
                else:
                    observation = {"kind": "differential", "size": diff_size,
                                   "cost": cost}
                    splitter.observe_differential(diff_size, cost)
                if writer is not None:
                    writer.append_view(self._view_record(
                        index, result, split, observation))
            # Gather counts before close: on the process backend they come
            # from the still-running workers over the exchange channels.
            trace_memory = (resident.record_counts() if resident.built
                            else None)
        except BudgetExceededError as error:
            error.partial = CollectionRunResult(
                computation=computation.name,
                collection=collection.name,
                mode=mode,
                views=results,
                total_wall_seconds=time.perf_counter() - total_started,
                total_work=sum(r.work for r in results),
                total_parallel_time=sum(r.parallel_time for r in results),
                split_points=split_points,
                resumed_views=start_index,
            )
            raise
        finally:
            try:
                if writer is not None:
                    writer.close()
            finally:
                resident.close()
        profile = None
        if self.tracer is not None:
            profile = CollectionProfile(
                views=[r.profile for r in results if r.profile is not None])
        return CollectionRunResult(
            computation=computation.name,
            collection=collection.name,
            mode=mode,
            views=results,
            total_wall_seconds=time.perf_counter() - total_started,
            total_work=sum(r.work for r in results),
            total_parallel_time=sum(r.parallel_time for r in results),
            split_points=split_points,
            resumed_views=start_index,
            trace_memory=trace_memory,
            profile=profile,
        )

    # -- per-view execution with recovery ---------------------------------------

    def _run_view_with_retries(
            self, resident: ResidentDataflow,
            collection: MaterializedCollection, index: int,
            planned: SplitDecision, *, keep_outputs: bool,
            keep_output_diffs: bool, budget: Optional[RunBudget],
            retry_policy: Optional[RetryPolicy]) -> ViewRunResult:
        """Run one view; on failure retry, then degrade differential→scratch.

        Every retry starts from a reset resident (the failed dataflow may
        hold half-applied state): a differential retry replays the
        cumulative diff up to the previous view first, a scratch attempt
        feeds the full view. ``BudgetExceededError`` is never retried.
        """
        failures: List[str] = []
        attempts = 0
        phases = [planned]
        if planned is SplitDecision.DIFFERENTIAL and index > 0:
            phases.append(SplitDecision.SCRATCH)
        attempts_per_phase = 1 + (retry_policy.max_retries
                                  if retry_policy is not None else 0)
        last_error: Optional[BaseException] = None
        for attempt_strategy in phases:
            for _ in range(attempts_per_phase):
                if attempts > 0:
                    assert retry_policy is not None
                    retry_policy.pause(attempts)
                attempts += 1
                try:
                    result = self._attempt_view(
                        resident, collection, index, attempt_strategy,
                        keep_outputs=keep_outputs,
                        keep_output_diffs=keep_output_diffs, budget=budget)
                    result.attempts = attempts
                    result.failures = failures
                    result.degraded = attempt_strategy is not planned
                    return result
                except BudgetExceededError:
                    raise
                except Exception as error:
                    failures.append(f"{type(error).__name__}: {error}")
                    last_error = error
                    # Whatever failed, the next attempt must not feed a
                    # dataflow that may already hold part of this view.
                    resident.reset()
                    if retry_policy is None:
                        raise
        assert last_error is not None
        raise last_error

    def _attempt_view(self, resident: ResidentDataflow,
                      collection: MaterializedCollection, index: int,
                      strategy: SplitDecision, *, keep_outputs: bool,
                      keep_output_diffs: bool, budget: Optional[RunBudget]
                      ) -> ViewRunResult:
        started = time.perf_counter()
        directed = resident.computation.directed
        if strategy is SplitDecision.SCRATCH:
            # A scratch view replaces the running dataflow.
            resident.reset()
            feed = edge_diff_to_input(collection.full_view_edges(index),
                                      directed=directed)
        else:
            if not resident.built:
                # Rebuilt differential attempt (retry or resume).
                self._replay(resident, collection, index - 1, budget)
            feed = collection.input_diff_for_view(index, directed=directed)
        mark = self.tracer.mark() if self.tracer is not None else 0
        step = resident.advance_by(feed, budget=budget, tracer=self.tracer)
        profile = None
        if self.tracer is not None:
            profile = profile_view(self.tracer,
                                   collection.view_names[index], mark,
                                   self.tracer.mark())
        return ViewRunResult(
            view_name=collection.view_names[index],
            strategy=strategy,
            wall_seconds=time.perf_counter() - started,
            work=step.work.total_work,
            parallel_time=step.work.parallel_time,
            view_size=collection.view_sizes[index],
            diff_size=collection.diff_sizes[index],
            output_diff_size=len(step.output_delta),
            output=resident.output() if keep_outputs else None,
            output_diff=step.output_delta if keep_output_diffs else None,
            profile=profile,
        )

    def _replay(self, resident: ResidentDataflow,
                collection: MaterializedCollection, upto_index: int,
                budget: Optional[RunBudget]) -> None:
        """Bring a reset resident to the accumulated state of a view.

        Feeds the cumulative edge difference of views ``0..upto_index``
        collapsed into one epoch, whose work is charged to the budget but
        to no view. Differential semantics guarantee the accumulated
        collections (and hence every later view's outputs) match a run
        that fed the views one epoch at a time.
        """
        resident.advance_by(
            edge_diff_to_input(collection.full_view_edges(upto_index),
                               directed=resident.computation.directed),
            budget=budget, tracer=self.tracer)

    # -- checkpoint record (de)serialization -------------------------------------

    @staticmethod
    def _view_record(index: int, result: ViewRunResult, split: bool,
                     observation: dict) -> dict:
        return {
            "index": index,
            "view_name": result.view_name,
            "strategy": result.strategy.value,
            "wall_seconds": result.wall_seconds,
            "work": result.work,
            "parallel_time": result.parallel_time,
            "view_size": result.view_size,
            "diff_size": result.diff_size,
            "output_diff_size": result.output_diff_size,
            "attempts": result.attempts,
            "degraded": result.degraded,
            "failures": list(result.failures),
            "split": split,
            "observation": observation,
            "output": encode_diff(result.output),
            "output_diff": encode_diff(result.output_diff),
        }

    @staticmethod
    def _result_from_record(record: dict) -> ViewRunResult:
        return ViewRunResult(
            view_name=record["view_name"],
            strategy=SplitDecision(record["strategy"]),
            wall_seconds=record["wall_seconds"],
            work=record["work"],
            parallel_time=record["parallel_time"],
            view_size=record["view_size"],
            diff_size=record["diff_size"],
            output_diff_size=record["output_diff_size"],
            output=decode_diff(record["output"]),
            output_diff=decode_diff(record["output_diff"]),
            attempts=record.get("attempts", 1),
            degraded=record.get("degraded", False),
            failures=list(record.get("failures", ())),
        )

    @staticmethod
    def _check_resume_header(stored: dict, expected: dict,
                             path) -> None:
        for key in ("fingerprint", "computation", "mode", "cost_metric",
                    "batch_size", "num_views"):
            if stored.get(key) != expected[key]:
                raise CheckpointError(
                    f"checkpoint {path} does not match this run: "
                    f"{key} is {stored.get(key)!r}, run has "
                    f"{expected[key]!r}")
        for key in ("keep_outputs", "keep_output_diffs"):
            if expected[key] and not stored.get(key):
                raise CheckpointError(
                    f"checkpoint {path} was written without {key}; cannot "
                    f"resume a run that requests it")

    # -- internals -------------------------------------------------------------------

    def _choose(self, mode: ExecutionMode, splitter: AdaptiveSplitter,
                index: int, view_size: int, diff_size: int,
                resident: ResidentDataflow) -> SplitDecision:
        if mode is ExecutionMode.DIFF_ONLY:
            # The very first view necessarily computes from nothing; calling
            # it differential keeps the single-dataflow semantics.
            return (SplitDecision.DIFFERENTIAL if resident.built
                    else SplitDecision.SCRATCH)
        if mode is ExecutionMode.SCRATCH:
            return SplitDecision.SCRATCH
        return splitter.decide(index, view_size, diff_size)

    def _resident(self, computation: GraphComputation,
                  fault_plan: Optional[FaultPlan]) -> ResidentDataflow:
        """The one resident dataflow a run drives (``docs/engine.md``)."""
        return ResidentDataflow(
            computation, workers=self.workers, fault_plan=fault_plan,
            backend=self.backend, strict=self.strict,
            sanitize=self.sanitize)
