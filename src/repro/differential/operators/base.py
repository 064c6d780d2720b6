"""Operator base class and wiring."""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, List, Sequence, Tuple

from repro.differential.multiset import Diff
from repro.differential.timestamp import Time

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.differential.dataflow import Dataflow, Scope


class Operator:
    """A node in the dataflow DAG.

    Contract:

    * ``on_delta(port, time, diff)`` is called when an upstream operator
      emits a difference. ``diff`` must be treated as **read-only** — it may
      be shared with other consumers.
    * ``flush(time)`` is called by the scope driver once per operator per
      timestamp pass, in topological order. Keyed operators process their
      scheduled tasks here; linear operators have nothing to do.
    * ``pending_times()`` reports timestamps at which the operator still has
      scheduled work; scope drivers use it to decide how far to iterate.
    """

    def __init__(self, dataflow: "Dataflow", scope: "Scope", name: str,
                 inputs: Sequence["Operator"] = ()):
        self.dataflow = dataflow
        self.scope = scope
        self.name = name
        self.inputs = list(inputs)
        self.downstream: List[Tuple[Operator, int]] = []
        for port, upstream in enumerate(self.inputs):
            upstream.downstream.append((self, port))
        self.index = dataflow.register(self, scope)

    # -- data plane ---------------------------------------------------------

    def send(self, time: Time, diff: Diff) -> None:
        """Push a consolidated difference to all downstream consumers."""
        if not diff:
            return
        tracer = self.dataflow.tracer
        if tracer is None:
            for op, port in self.downstream:
                op.on_delta(port, time, diff)
            return
        # Traced run: work metered inside a consumer's on_delta belongs to
        # that consumer — bracket each delivery with its context.
        for op, port in self.downstream:
            tracer.enter_operator(op.name, op.scope.depth, time)
            try:
                op.on_delta(port, time, diff)
            finally:
                tracer.exit_operator()

    def on_delta(self, port: int, time: Time, diff: Diff) -> None:
        raise NotImplementedError

    # -- control plane ------------------------------------------------------

    def flush(self, time: Time) -> None:
        """Process scheduled work at exactly ``time`` (keyed ops only)."""

    def pending_times(self) -> Iterable[Time]:
        return ()

    def discard_pending_beyond(self, prefix: Time, max_iter: int) -> None:
        """Drop scheduled work past an iteration clamp (see IterateOp)."""

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} {self.name}#{self.index}>"
