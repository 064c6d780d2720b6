"""Input and output endpoints of a dataflow."""

from __future__ import annotations

from typing import Dict, Optional

from repro.differential.multiset import Diff, add_into, consolidate
from repro.differential.operators.base import Operator
from repro.differential.timestamp import Time, leq


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

    Stores diffs per timestamp; exposes both the raw difference stream (what
    the Graphsurge executor ships to the user per view) and accumulated
    values (for verification against reference algorithms).
    """

    def __init__(self, dataflow, scope, name, source: Operator):
        super().__init__(dataflow, scope, name, [source])
        self.trace: Dict[Time, Diff] = {}
        self._compacted_below = 0
        # The sum of every diff received and the latest epoch among them:
        # the collection's value at any root time at or past that epoch,
        # so a frontier read need not rescan the trace. ``None`` once a
        # nested-scope time arrives (times are then only partially
        # ordered and every read scans).
        self._total: Optional[Diff] = {}
        self._latest_epoch = -1

    def on_delta(self, port: int, time: Time, diff: Diff) -> None:
        if time[0] < self._compacted_below:
            # Out-of-frontier write (tests / replay): reopen the range.
            self._compacted_below = time[0]
        if len(time) > 1:
            self._total = None
        elif self._total is not None:
            add_into(self._total, diff)
            self._latest_epoch = max(self._latest_epoch, time[0])
        slot = self.trace.get(time)
        if slot is None:
            self.trace[time] = dict(diff)
        else:
            add_into(slot, diff)
            if not slot:
                del self.trace[time]

    def compact_below(self, epoch: int) -> None:
        """Fold diffs of epochs before ``epoch`` into one representative.

        The capture trace is the one store that otherwise grows with the
        number of epochs forever: one entry per stepped epoch, scanned in
        full by every :meth:`accumulated` behind the latest epoch. Once
        epochs below ``epoch`` are closed (the stream will never ask for
        a per-epoch value there again), their diffs sum into the time
        ``(0,)`` — after which :meth:`accumulated` at any live time sees
        the identical sum, but holds O(live epochs) entries. Exact
        per-epoch reads (:meth:`diff_at`) below the bound are forfeited,
        by design.
        """
        if epoch <= self._compacted_below:
            return
        self._compacted_below = epoch
        merged: Dict[Time, Diff] = {}
        for time, diff in self.trace.items():
            rep = (0,) + time[1:] if time[0] < epoch else time
            slot = merged.get(rep)
            if slot is None:
                merged[rep] = dict(diff)
            else:
                add_into(slot, diff)
        self.trace = {t: d for t, d in merged.items() if d}

    def diff_at(self, time: Time) -> Diff:
        """The consolidated difference emitted at exactly ``time``."""
        return dict(self.trace.get(time, {}))

    def accumulated(self, time: Time) -> Diff:
        """The collection's value at ``time`` (sum of diffs at s <= t)."""
        if self._total is not None and len(time) == 1 \
                and time[0] >= self._latest_epoch:
            return dict(self._total)
        acc: Diff = {}
        for s, diff in self.trace.items():
            if leq(s, time):
                add_into(acc, diff)
        return acc

    def value_at_epoch(self, epoch: int) -> Diff:
        """Root-scope helper: accumulated value at time ``(epoch,)``."""
        return self.accumulated((epoch,))
