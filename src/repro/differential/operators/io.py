"""Input and output endpoints of a dataflow."""

from __future__ import annotations

from repro.differential.multiset import Diff, consolidate
from repro.differential.operators.base import Operator
from repro.differential.timestamp import Time
from repro.differential.trace import KeyTrace


class InputOp(Operator):
    """Root-scope source fed by :meth:`Dataflow.step`."""

    def on_delta(self, port: int, time: Time, diff: Diff) -> None:
        raise AssertionError("InputOp has no upstream")

    def push(self, time: Time, diff: Diff) -> None:
        diff = consolidate(dict(diff))
        if diff:
            for rec in diff:
                self.dataflow.meter.record(rec)
            self.send(time, diff)


class CaptureOp(Operator):
    """Sink that records the difference stream of a collection.

    Stores diffs per timestamp in one :class:`KeyTrace`; exposes both the
    raw difference stream (what the Graphsurge executor ships to the user
    per view) and accumulated values (for verification against reference
    algorithms). A root-scope delta also advances the trace's
    accumulation cache to its epoch, so the cache holds the running sum
    and a frontier read is a copy of it; a read behind the frontier
    rescans.

    Unlike a keyed trace, this log keeps real epochs, so it is the one
    store that grows with the number of epochs; :meth:`Dataflow.compact`
    folds its closed epochs (:meth:`KeyTrace.compact_below`).
    """

    def __init__(self, dataflow, scope, name, source: Operator):
        super().__init__(dataflow, scope, name, [source])
        self.trace = KeyTrace()

    def on_delta(self, port: int, time: Time, diff: Diff) -> None:
        self.trace.update(time, diff)
        if len(time) == 1:
            self.trace.accumulate(time)

    def diff_at(self, time: Time) -> Diff:
        """The consolidated difference emitted at exactly ``time``."""
        return dict(self.trace.entries.get(time, {}))

    def accumulated(self, time: Time) -> Diff:
        """The collection's value at ``time`` (sum of diffs at s <= t).

        A copy: the trace's own accumulation is borrowed.
        """
        return dict(self.trace.accumulate(time))

    def value_at_epoch(self, epoch: int) -> Diff:
        """Root-scope helper: accumulated value at time ``(epoch,)``."""
        return self.accumulated((epoch,))
