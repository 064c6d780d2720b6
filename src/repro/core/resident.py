"""The epoch driver: one owner of a running dataflow's lifecycle.

The paper's Analytics Computation Executor (§3.2.2, §5) has one job — feed
a view's edge difference set to a built dataflow as the next epoch, or
throw the dataflow away and start from the full view. :func:`build_plan`
is the only place a :class:`~repro.core.computation.GraphComputation`
becomes a dataflow, and :class:`ResidentDataflow` the only place one is
fed, failed and rebuilt. The batch executor, the serve session and the
stream engine are three callers of this one driver (``docs/engine.md``,
"The epoch driver").
"""

from __future__ import annotations

from typing import Dict, NamedTuple, Optional, Tuple

from repro.core.computation import GraphComputation
from repro.core.resilience import FaultPlan, RunBudget
from repro.differential.dataflow import Dataflow
from repro.differential.multiset import Diff, add_into
from repro.differential.operators.io import CaptureOp
from repro.errors import AnalysisError, ComputationError
from repro.observe.tracer import TraceSink, attached
from repro.timely.meter import WorkSnapshot


def build_plan(computation: GraphComputation, workers: int = 1,
               backend: str = "inline",
               fault_plan: Optional[FaultPlan] = None,
               strict: bool = False,
               sanitize: bool = False) -> Tuple[Dataflow, CaptureOp]:
    """Turn a computation into a built, never-stepped dataflow.

    The plan every driver runs: one ``edges`` input, the computation's
    ``build``, one root-scope ``results`` capture. ``strict`` statically
    analyzes the plan (plus the shard-safety pass on the process backend)
    and raises :class:`~repro.errors.AnalysisError` on ERROR findings
    before anything executes; ``sanitize`` hangs an inline shadow of the
    same plan off the dataflow (:mod:`repro.verify.sanitize`).
    """
    dataflow = Dataflow(workers=workers, fault_plan=fault_plan,
                        backend=backend)
    result = computation.build(dataflow, dataflow.new_input("edges"))
    if result.scope is not dataflow.root:
        raise ComputationError(
            f"{computation.name}: build() must return a root-scope "
            f"collection")
    capture = dataflow.capture(result, "results")
    if strict:
        from repro.analyze import analyze

        report = analyze(dataflow, concurrency=(backend == "process"))
        if not report.ok:
            raise AnalysisError(report)
    if sanitize:
        from repro.verify.sanitize import attach_shadow

        attach_shadow(dataflow, computation)
    return dataflow, capture


def multiset_delta(current: Diff, target: Diff) -> Diff:
    """The difference that advances multiset ``current`` to ``target``."""
    delta: Diff = {}
    for record, mult in target.items():
        change = mult - current.get(record, 0)
        if change:
            delta[record] = change
    for record, mult in current.items():
        if record not in target and mult:
            delta[record] = -mult
    return delta


class EpochStep(NamedTuple):
    """What feeding one epoch produced."""

    #: The consolidated result change since the output the caller last
    #: saw — the epoch's own diff, or, on the first epoch after a failure
    #: forced a rebuild, the difference between the rebuilt dataflow's
    #: output and the last output reported before the failure. Summing
    #: every ``output_delta`` therefore always equals :meth:`output`.
    output_delta: Diff
    #: Work metered for this epoch alone.
    work: WorkSnapshot


class ResidentDataflow:
    """One computation's dataflow, kept hot and fed one epoch at a time.

    ``current`` is the input multiset handed over so far; the dataflow is
    a materialization of it. A failed ``step`` may leave operator state
    mid-epoch, so any exception drops the dataflow (releasing its worker
    processes) — the next feed builds a fresh one and absorbs all of
    ``current`` as a single epoch. :meth:`reset` additionally forgets
    ``current``: the next feed starts from an empty dataflow.
    """

    def __init__(self, computation: GraphComputation, workers: int = 1,
                 fault_plan: Optional[FaultPlan] = None,
                 backend: str = "inline", strict: bool = False,
                 sanitize: bool = False):
        self.computation = computation
        self.workers = workers
        self.backend = backend
        self.fault_plan = fault_plan
        self.strict = strict
        self.sanitize = sanitize
        self.current: Diff = {}
        self.dataflow: Optional[Dataflow] = None
        self.capture: Optional[CaptureOp] = None
        self.epochs_fed = 0
        self.rebuilds = 0
        #: The strict gate's verdict: one clean analysis per resident is
        #: enough, every rebuild constructs the same plan.
        self._analyzed = False
        #: The output as of the last reported epoch, held from a failure
        #: until the next reported epoch restates against it.
        self._reported: Optional[Diff] = None

    @property
    def built(self) -> bool:
        """Whether a live dataflow currently materializes ``current``."""
        return self.dataflow is not None

    # -- feeding --------------------------------------------------------------

    def advance_by(self, delta: Diff, budget: Optional[RunBudget] = None,
                   tracer: Optional[TraceSink] = None) -> EpochStep:
        """Absorb an input ``delta`` as exactly one epoch.

        Always steps, even for an empty delta (the batch executor's
        epoch-per-view contract). ``budget`` and ``tracer`` apply to this
        epoch only.
        """
        add_into(self.current, delta)
        work = self._step(delta, budget, tracer)
        epoch = self.dataflow.epoch
        reported, self._reported = self._reported, None
        if reported is None:
            return EpochStep(self.capture.diff_at((epoch,)), work)
        return EpochStep(
            multiset_delta(reported, self.capture.value_at_epoch(epoch)),
            work)

    def advance_to(self, target: Diff, budget: Optional[RunBudget] = None,
                   tracer: Optional[TraceSink] = None) -> EpochStep:
        """Step the dataflow to the ``target`` input multiset.

        Skipped entirely — zero work, by construction — when the live
        dataflow is already *at* the target.
        """
        delta = multiset_delta(self.current, target)
        if not delta and self.built:
            return EpochStep({}, WorkSnapshot(0, 0, 0))
        return self.advance_by(delta, budget=budget, tracer=tracer)

    def _step(self, delta: Diff, budget: Optional[RunBudget],
              tracer: Optional[TraceSink]) -> WorkSnapshot:
        if self.dataflow is None:
            self.dataflow, self.capture = build_plan(
                self.computation, workers=self.workers,
                backend=self.backend, fault_plan=self.fault_plan,
                strict=self.strict and not self._analyzed,
                sanitize=self.sanitize)
            self._analyzed = True
            self.rebuilds += 1
            delta = self.current
        dataflow = self.dataflow
        before = dataflow.meter.snapshot()
        previous = dataflow.epoch
        dataflow.set_budget(budget)
        try:
            with attached(dataflow, tracer):
                dataflow.step({"edges": delta})
        except BaseException:
            if previous >= 0 and self._reported is None:
                self._reported = self.capture.value_at_epoch(previous)
            self._drop()
            raise
        dataflow.set_budget(None)
        self.epochs_fed += 1
        return before.delta(dataflow.meter.snapshot())

    # -- reads ----------------------------------------------------------------

    def output(self) -> Diff:
        """The accumulated output for ``current`` (rebuilding if dropped)."""
        if self.dataflow is None:
            self._step({}, None, None)
        return self.capture.value_at_epoch(self.dataflow.epoch)

    def record_counts(self) -> Dict[str, int]:
        """Stored trace entries per operator (resident-memory figure)."""
        if self.dataflow is None:
            return {}
        from repro.differential.debug import operator_record_counts

        return operator_record_counts(self.dataflow)

    def capture_times(self) -> int:
        """Distinct timestamps the output capture still holds."""
        return len(self.capture.trace.entries) if self.capture is not None else 0

    # -- lifecycle ------------------------------------------------------------

    def compact(self, keep_epochs: int) -> None:
        """Fold the capture log's epochs older than the last
        ``keep_epochs`` (:meth:`Dataflow.compact`)."""
        if self.dataflow is not None:
            self.dataflow.compact(self.dataflow.epoch - keep_epochs)

    def reset(self) -> None:
        """Drop the dataflow and forget the absorbed input."""
        self.current = {}
        self._reported = None
        self._drop()

    def close(self) -> None:
        """Release the dataflow and its worker processes. Idempotent."""
        self.reset()

    def _drop(self) -> None:
        # Detach *before* closing: close() may itself fail (e.g. a wedged
        # worker cluster), and the resident must not keep feeding a
        # half-closed dataflow in that case.
        dataflow, self.dataflow = self.dataflow, None
        self.capture = None
        if dataflow is not None:
            dataflow.close()
