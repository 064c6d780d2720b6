"""Iterative scopes: ``enter``, the loop variable, and ``iterate`` itself.

An ``iterate`` scope computes the fixed point of a body function::

    V(e, 0)   = In(e)
    V(e, i+1) = Body(V)(e, i)

Per epoch, the scope driver advances the loop counter until no operator in
the scope's subtree holds scheduled work for this epoch — i.e. until the
computation's differences are empty, which by the differential-computation
model means the fixed point is reached. Prior epochs' difference histories
are respected: a later epoch re-runs exactly the (key, iteration) pairs at
which its trajectory diverges from (or must cancel) earlier epochs'.

``leave`` projects the inner time away by summing a key's inner-scope
differences per outer timestamp, which is exactly the value of the loop
variable "at iteration infinity".
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from repro.differential.multiset import Diff, add_into, consolidate
from repro.differential.operators.base import Operator
from repro.differential.operators.keyed import ScheduledOperator
from repro.differential.timestamp import Time
from repro.differential.trace import Trace
from repro.errors import DataflowError

#: Hard cap on loop iterations when the user supplies no ``max_iters`` —
#: purely a safety net against non-converging computations.
SAFETY_MAX_ITERS = 100_000


class EnterOp(Operator):
    """Bring a parent-scope collection into a child scope.

    A parent difference at time ``t`` becomes a child difference at
    ``t + (0,)``; the product partial order then makes it visible at every
    iteration, so entered collections (e.g. the edges) are constant across
    the loop.
    """

    def __init__(self, dataflow, parent_scope, name, source):
        super().__init__(dataflow, parent_scope, name, [source])

    def on_delta(self, port: int, time: Time, diff: Diff) -> None:
        self.send(time + (0,), diff)


class VariableOp(ScheduledOperator):
    """The loop variable ``V`` of an iterate scope.

    Keyed operator with two logical inputs:

    * port 0 — the initial value ``In`` (parent scope, timestamps shifted
      into the child scope at iteration 0);
    * port 1 — the body result ``B`` (child scope, shifted one iteration
      forward: ``δB(e, i)`` drives a recomputation of ``V`` at ``(e, i+1)``).

    At iteration 0 the target value is ``In``; at iteration ``i >= 1`` the
    target is ``B`` accumulated at ``(e, i-1)``.
    """

    role = "variable"

    def __init__(self, dataflow, child_scope, name):
        self.in_trace = Trace(name + ".in")
        self.body_trace = Trace(name + ".body")
        super().__init__(dataflow, child_scope, name, [],
                         {"in": self.in_trace, "body": self.body_trace,
                          "out": Trace(name + ".out")})

    def connect_body(self, body_op: Operator) -> None:
        if len(self.inputs) > 0:
            raise DataflowError(f"variable {self.name} already has a body")
        self.inputs.append(body_op)
        body_op.downstream.append((self, 1))

    def push_initial(self, parent_time: Time, diff: Diff) -> None:
        """Deliver the initial-value diff (from the parent scope)."""
        time = parent_time + (0,)
        switch = parent_time + (1,)
        grouped = self.group(diff)
        self.store("in", time, grouped)
        self.schedule.schedule(grouped, time)
        # At iteration 1 the variable's definition switches from the
        # initial value to the body result; a key the body never
        # reproduces must be retracted there even though the body emits
        # no difference for it.
        self.schedule.schedule(grouped, switch)

    def on_delta(self, port: int, time: Time, diff: Diff) -> None:
        if port != 1:
            raise AssertionError("variable body deltas arrive on port 1")
        shifted = time[:-1] + (time[-1] + 1,)
        grouped = self.group(diff)
        self.store("body", time, grouped)
        self.schedule.schedule(grouped, shifted)

    def header(self, time: Time) -> Tuple:
        """Adds the trace the pass reads its target from, and where: the
        initial value at iteration 0, the body one iteration back after."""
        time, at = super().header(time)
        iteration = time[-1]
        if iteration == 0:
            return time, at, "in", at
        return time, at, "body", at[:-1] + (iteration - 1,)

    def kernel(self, header, key, _payload, record, outputs) -> None:
        time, at, tag, read_at = header
        # Borrowed accumulation: correct_output only reads the target.
        target = self.owned[tag].accumulate(key, read_at)
        record(key, max(1, len(target)))
        self.correct_output(key, at, target, record, outputs[time])


class _LeaveTap(Operator):
    """Child-scope sink buffering the variable's diffs per outer time."""

    def __init__(self, dataflow, child_scope, name, source):
        super().__init__(dataflow, child_scope, name, [source])
        self.buffers: Dict[Time, Diff] = {}

    def on_delta(self, port: int, time: Time, diff: Diff) -> None:
        outer = time[:-1]
        slot = self.buffers.get(outer)
        if slot is None:
            self.buffers[outer] = dict(diff)
        else:
            add_into(slot, diff)

    def take(self, outer: Time) -> Diff:
        return consolidate(self.buffers.pop(outer, {}))


class IterateOp(Operator):
    """Parent-scope operator that drives a child iterate scope.

    Construction is done by :meth:`Collection.iterate`: it creates the child
    scope, the variable, runs the user body builder, then finalizes this
    operator. The operator's own output is the ``leave`` stream of the loop
    variable.
    """

    def __init__(self, dataflow, parent_scope, name, source,
                 max_iters: Optional[int] = None):
        super().__init__(dataflow, parent_scope, name, [source])
        self.max_iters = max_iters
        self.child_scope = dataflow.new_scope(parent_scope)
        self.variable = VariableOp(dataflow, self.child_scope, name + ".var")
        self.leave_tap: Optional[_LeaveTap] = None
        self._finalized = False

    def finalize(self, body_op: Operator) -> None:
        """Wire the body result back into the variable; add the leave tap."""
        if self._finalized:
            raise DataflowError(f"iterate {self.name} finalized twice")
        self.variable.connect_body(body_op)
        self.leave_tap = _LeaveTap(
            self.dataflow, self.child_scope, self.name + ".leave",
            self.variable,
        )
        self._finalized = True

    def on_delta(self, port: int, time: Time, diff: Diff) -> None:
        # Initial-value diffs from the parent scope.
        self.variable.push_initial(time, diff)

    def _subtree_ops(self) -> List[Operator]:
        return self.dataflow.scope_subtree_ops(self.child_scope)

    def flush(self, time: Time) -> None:
        if not self._finalized:
            raise DataflowError(f"iterate {self.name} was never finalized")
        prefix = time
        plen = len(prefix)
        limit = self.max_iters if self.max_iters is not None else SAFETY_MAX_ITERS
        subtree = self._subtree_ops()
        meter = self.dataflow.meter
        tracer = self.dataflow.tracer
        iteration = 0
        passes_at_same = 0
        while True:
            t = prefix + (iteration,)
            # One loop iteration pass = one superstep (nested loops open
            # their own frames inside).
            meter.begin_step()
            if tracer is None:
                for op in subtree:
                    if op.scope is self.child_scope:
                        op.flush(t)
            else:
                for op in subtree:
                    if op.scope is self.child_scope:
                        tracer.enter_operator(op.name, op.scope.depth, t)
                        try:
                            op.flush(t)
                        finally:
                            tracer.exit_operator()
            meter.end_step()
            # Run guards: a non-converging loop must raise a structured
            # error (with the iteration reached) instead of spinning to the
            # safety cap or hanging against a wall-clock limit.
            self.dataflow.enforce_budget(f"iterate {self.name} @ {t}")
            # Find the next iteration with scheduled work under this prefix.
            nxt: Optional[int] = None
            for op in subtree:
                for pt in op.pending_times():
                    if pt[:plen] == prefix:
                        it = pt[plen]
                        if it >= iteration and (nxt is None or it < nxt):
                            nxt = it
            if nxt is None:
                break
            if nxt == iteration:
                # New work was scheduled at the current pass's own time
                # (e.g. by an operator later in topological order); rerun
                # the pass. Chains are bounded by the DAG depth.
                passes_at_same += 1
                if passes_at_same > 4 * len(subtree) + 8:
                    raise DataflowError(
                        f"iterate {self.name}: no progress at time {t}"
                    )
                continue
            passes_at_same = 0
            budget = self.dataflow.budget
            if budget is not None:
                budget.check_iterations(nxt, site=f"iterate {self.name}")
            if nxt > limit:
                if self.max_iters is None:
                    raise DataflowError(
                        f"iterate {self.name} exceeded the safety cap of "
                        f"{SAFETY_MAX_ITERS} iterations without converging"
                    )
                for op in subtree:
                    op.discard_pending_beyond(prefix, limit)
                break
            iteration = nxt
        assert self.leave_tap is not None
        self.send(prefix, self.leave_tap.take(prefix))

    def pending_times(self) -> Iterable[Time]:
        # Ancestor drivers scan every operator in their scope subtree, which
        # already includes this scope's operators — reporting them here too
        # would double-count, so the IterateOp itself reports nothing.
        return ()

    def discard_pending_beyond(self, prefix: Time, max_iter: int) -> None:
        for op in self._subtree_ops():
            op.discard_pending_beyond(prefix, max_iter)
