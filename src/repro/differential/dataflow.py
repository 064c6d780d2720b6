"""Dataflow construction and the epoch driver.

A :class:`Dataflow` owns the operator DAG, the scope tree, and the work
meter. Inputs are fed one *epoch* at a time with :meth:`Dataflow.step`; when
executing a Graphsurge view collection, epoch ``t`` is view ``t`` and the
fed differences are the collection's edge difference sets (paper §3.2).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from repro.differential.collection import Collection
from repro.differential.multiset import Diff
from repro.differential.operators.base import Operator
from repro.differential.operators.io import CaptureOp, InputOp
from repro.differential.operators.keyed import KeyedOperator
from repro.errors import DataflowError
from repro.timely.cluster import ProcessCluster, validate_backend
from repro.timely.meter import WorkMeter


class Scope:
    """A nesting level of the dataflow; each ``iterate`` adds one."""

    def __init__(self, dataflow: "Dataflow", parent: Optional["Scope"]):
        self.dataflow = dataflow
        self.parent = parent
        self.depth = 1 if parent is None else parent.depth + 1
        self.children: List["Scope"] = []
        if parent is not None:
            parent.children.append(self)

    def enter(self, collection: Collection) -> Collection:
        """Bring a collection from an ancestor scope into this scope.

        Chains one ``enter`` per nesting level, so a root-scope collection
        can be brought directly into a doubly-nested scope.
        """
        from repro.differential.operators.iterate import EnterOp

        path: List[Scope] = []
        scope: Optional[Scope] = self
        while scope is not None and scope is not collection.scope:
            path.append(scope)
            scope = scope.parent
        if scope is None:
            raise DataflowError(
                "enter() requires the collection to come from an ancestor "
                "scope")
        current = collection
        for target in reversed(path):
            op = EnterOp(self.dataflow, current.scope, "enter", current.op)
            current = Collection(self.dataflow, op, target)
        return current


class Dataflow:
    """An executable differential dataflow."""

    def __init__(self, workers: int = 1, meter: Optional[WorkMeter] = None,
                 fault_plan=None, backend: str = "inline"):
        self.meter = (meter if meter is not None
                      else WorkMeter(workers, fault_plan=fault_plan))
        validate_backend(backend, self.meter.workers)
        #: Execution backend: ``"inline"`` runs all worker shards in this
        #: process; ``"process"`` forks one OS process per worker at the
        #: first :meth:`step` and routes keyed operator work over exchange
        #: channels (see :mod:`repro.timely.cluster`, ``docs/parallel.md``).
        #: Counters and outputs are byte-identical between backends.
        self.backend = backend
        #: The live :class:`~repro.timely.cluster.ProcessCluster`, or
        #: ``None`` on the inline backend (and before the first step).
        #: The keyed-operator shell branches on this to place key state
        #: and route per-key kernels.
        self.cluster = None
        #: Optional :class:`repro.observe.tracer.TraceSink`, attached around
        #: an epoch by :func:`repro.observe.tracer.attached`. When set, the
        #: scope drivers and :meth:`Operator.send` bracket every operator
        #: apply with an attribution context; when ``None`` every hook is
        #: a single ``is None`` test and the engine behaves identically.
        self.tracer = None
        #: Optional :class:`repro.core.resilience.RunBudget`, attached by
        #: :meth:`set_budget`; shared across dataflow restarts by the
        #: executor, so work charged here accumulates over a whole
        #: collection run.
        self.budget = None
        #: Optional :class:`repro.core.resilience.FaultPlan` ("epoch" site
        #: fires at the top of every :meth:`step`).
        self.fault_plan = fault_plan
        self._budget_charged = 0
        #: Optional :class:`repro.verify.sanitize.ShadowSanitizer`. When
        #: set (``sanitize=True`` runs), every completed :meth:`step` is
        #: replayed on an inline shadow dataflow and the per-superstep
        #: trace frames are diffed; ``None`` costs one ``is None`` test.
        self.sanitizer = None
        self.root = Scope(self, None)
        self._ops_by_scope: Dict[Scope, List[Operator]] = {self.root: []}
        self._op_count = 0
        self._subtree_cache: Dict[Scope, List[Operator]] = {}
        self.inputs: Dict[str, InputOp] = {}
        self.epoch = -1
        self._frozen = False

    # -- construction ---------------------------------------------------------

    def register(self, op: Operator, scope: Scope) -> int:
        if self._frozen:
            raise DataflowError(
                "cannot add operators after the dataflow started stepping")
        self._ops_by_scope.setdefault(scope, []).append(op)
        self._subtree_cache.clear()
        self._op_count += 1
        return self._op_count - 1

    def new_scope(self, parent: Scope) -> Scope:
        scope = Scope(self, parent)
        self._ops_by_scope.setdefault(scope, [])
        return scope

    def move_to_scope_end(self, op: Operator) -> None:
        """Re-append an operator so it is flushed after its scope peers.

        Used by ``iterate``: the IterateOp is created before the body (and
        before the body's ``enter`` operators in the parent scope), but must
        run after the entered sources have delivered this epoch's deltas.
        """
        ops = self._ops_by_scope[op.scope]
        ops.remove(op)
        ops.append(op)
        self._subtree_cache.clear()

    def new_input(self, name: str) -> Collection:
        """Declare a named root-scope input."""
        if name in self.inputs:
            raise DataflowError(f"duplicate input name {name!r}")
        op = InputOp(self, self.root, name)
        self.inputs[name] = op
        return Collection(self, op, self.root)

    def capture(self, collection: Collection, name: str = "out") -> CaptureOp:
        """Attach an output sink to a root-scope collection."""
        if collection.scope is not self.root:
            raise DataflowError("outputs must be captured at the root scope")
        return collection.capture(name)

    # -- execution -------------------------------------------------------------

    def scope_subtree_ops(self, scope: Scope) -> List[Operator]:
        cached = self._subtree_cache.get(scope)
        if cached is None:
            cached = []
            stack = [scope]
            while stack:
                current = stack.pop()
                cached.extend(self._ops_by_scope.get(current, ()))
                stack.extend(current.children)
            self._subtree_cache[scope] = cached
        return cached

    def step(self, input_diffs: Optional[Dict[str, Diff]] = None) -> int:
        """Advance one epoch, feeding the given per-input differences.

        Returns the epoch index just processed. Runs the dataflow to
        quiescence: every operator's scheduled work for this epoch (at any
        loop depth) is drained before returning.
        """
        if self.fault_plan is not None:
            # Epoch boundary: fires before any state mutates, so the fault
            # models a crash *between* views.
            self.fault_plan.fire("epoch", context=f"epoch {self.epoch + 1}")
        if self.budget is not None:
            self.budget.start()
        self._frozen = True
        if self.backend == "process" and self.cluster is None:
            self._start_cluster()
        self.epoch += 1
        time = (self.epoch,)
        tracer = self.tracer
        if input_diffs:
            for name, diff in input_diffs.items():
                op = self.inputs.get(name)
                if op is None:
                    raise DataflowError(f"unknown input {name!r}")
                if tracer is not None:
                    tracer.enter_operator(op.name, op.scope.depth, time)
                    try:
                        op.push(time, diff)
                    finally:
                        tracer.exit_operator()
                else:
                    op.push(time, diff)
        root_ops = self._ops_by_scope[self.root]
        subtree = self.scope_subtree_ops(self.root)
        max_passes = 4 * len(subtree) + 8
        for _pass in range(max_passes):
            # One pass over the root scope at this timestamp is one
            # superstep: timely workers run all operators of the pass
            # data-parallel and synchronize at its end. Nested loop passes
            # (inside IterateOp.flush) open their own superstep frames.
            self.meter.begin_step()
            if tracer is None:
                for op in root_ops:
                    op.flush(time)
            else:
                for op in root_ops:
                    tracer.enter_operator(op.name, op.scope.depth, time)
                    try:
                        op.flush(time)
                    finally:
                        tracer.exit_operator()
            self.meter.end_step()
            self.enforce_budget(f"epoch {self.epoch}")
            if not self._has_pending(subtree, time):
                if self.sanitizer is not None:
                    self.sanitizer.after_step(self, input_diffs)
                return self.epoch
        raise DataflowError(
            f"dataflow failed to quiesce at epoch {self.epoch}")

    def _start_cluster(self) -> None:
        """Fork the worker processes (process backend, first step only).

        Deferred to the first step so the fork copies the *complete* frozen
        operator graph — including user closures, which could never be
        pickled — while every keyed trace is still empty. From here on the
        coordinator's copies of keyed traces stay empty: resident state
        accumulates only on the owning workers, so memory is genuinely
        sharded.
        """
        registry = {op.index: op
                    for ops in self._ops_by_scope.values() for op in ops
                    if isinstance(op, KeyedOperator)}
        self.cluster = ProcessCluster(
            self.meter.workers, registry,
            superstep=lambda: self.meter.supersteps)

    def compact(self, before_epoch: int) -> None:
        """Fold every capture's per-epoch log below ``before_epoch``.

        The streaming driver's memory bound. Keyed traces hold one entry
        per loop suffix and none per epoch (``repro.differential.trace``),
        so a capture's log is the only history that grows with the number
        of epochs: once epochs below the bound are closed, their diffs
        fold into one epoch-0 representative, and resident state grows
        with the live graph, not with the total number of epochs ever
        streamed. The bound is clamped to the last completed epoch.
        Captures live on the coordinator on either backend.
        """
        bound = min(before_epoch, self.epoch)
        if bound <= 0:
            return
        for ops in self._ops_by_scope.values():
            for op in ops:
                if isinstance(op, CaptureOp):
                    op.trace.compact_below(bound)
        if self.sanitizer is not None:
            self.sanitizer.compact(before_epoch)

    def close(self) -> None:
        """Release backend resources (worker processes). Idempotent.

        A no-op on the inline backend. The executor and the serving layer
        call this whenever a dataflow is discarded; daemonic workers are
        the backstop for paths that do not.
        """
        cluster, self.cluster = self.cluster, None
        if cluster is not None:
            cluster.close()
        sanitizer, self.sanitizer = self.sanitizer, None
        if sanitizer is not None:
            sanitizer.close()

    def set_budget(self, budget) -> None:
        """Attach (or with ``None`` detach) a budget to a live dataflow.

        Long-lived dataflows (the serving layer's resident sessions) swap a
        fresh per-request budget in before each ``step``; charging restarts
        from the current meter reading so the new budget only pays for work
        done on its watch.
        """
        self.budget = budget
        self._budget_charged = self.meter.total_work

    def enforce_budget(self, site: str) -> None:
        """Charge newly metered work to the budget and enforce its limits.

        Charges the delta since the previous call so the budget stays
        correct across nested callers (the epoch driver and every iterate
        scope call this). Raises ``BudgetExceededError`` on breach.
        """
        if self.budget is None:
            return
        total = self.meter.total_work
        delta = total - self._budget_charged
        self._budget_charged = total
        self.budget.charge(delta, site=site)

    @staticmethod
    def _has_pending(ops: Iterable[Operator], prefix) -> bool:
        plen = len(prefix)
        for op in ops:
            for t in op.pending_times():
                if t[:plen] == prefix:
                    return True
        return False
