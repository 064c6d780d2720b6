"""Shared arrangements.

In Differential Dataflow, ``arrange_by_key`` materializes a collection's
difference trace once and lets many downstream operators read the same
index instead of each building a private copy — a major memory and
maintenance saving when e.g. the edges relation feeds several joins.

``ArrangeOp`` stores the trace and forwards differences; a
``JoinArrangedOp`` keeps a private trace only for its *other* input and
reads the arranged side from the shared trace.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.differential.multiset import Diff
from repro.differential.operators.base import Operator
from repro.differential.operators.keyed import KeyedOperator, pair_key
from repro.differential.timestamp import Time
from repro.differential.trace import Trace, key_time


class ArrangeOp(KeyedOperator):
    """Materialize a keyed collection's trace; forward its differences."""

    role = "arrange"

    def __init__(self, dataflow, scope, name, source):
        self.trace = Trace(name + ".trace")
        super().__init__(dataflow, scope, name, [source],
                         {"trace": self.trace})

    def on_delta(self, port: int, time: Time, diff: Diff) -> None:
        # Stored before forwarding, so the probes the forwarded diff
        # triggers downstream already see it — exactly-once pairing.
        self.store("trace", time, self.group(diff))
        # Deliberately unmetered: the cost model charges index maintenance
        # at the joins that read a trace, so a dataflow using one shared
        # arrangement reports the same total_work/parallel_time as the
        # same dataflow with private per-join traces. Sharing shows up as
        # memory (record_count) and wall clock, not as model work.
        self.send(time, diff)


class ArrangeEnterOp(Operator):
    """Bring an arrangement's difference stream into a child scope.

    Shares the parent arrangement's trace — no copy is made. Forwarded
    differences get a zero loop coordinate appended (exactly like
    ``EnterOp``); consumers pad the shared trace's shorter stored times
    the same way when pairing.
    """

    def __init__(self, dataflow, parent_scope, name, source):
        super().__init__(dataflow, parent_scope, name, [source])
        self.trace = source.trace

    def on_delta(self, port: int, time: Time, diff: Diff) -> None:
        self.send(time + (0,), diff)


class JoinArrangedOp(KeyedOperator):
    """Join a stream (port 0) against a shared arrangement (port 1).

    Port 0 differences pair against the arrangement's full trace; the
    arrangement's forwarded differences pair against the private port-0
    trace. Each difference pair is counted exactly once, as in
    :class:`repro.differential.operators.join.JoinOp` — but the arranged
    side's trace is stored once no matter how many joins read it.
    """

    role = "join_arranged"

    def __init__(self, dataflow, scope, name, left, arrange_op,
                 f: Callable[[Any, Any, Any], Any]):
        self.left_trace = Trace(name + ".left")
        # The arranged side is owned (and counted) by its ArrangeOp.
        super().__init__(dataflow, scope, name, [left, arrange_op],
                         {"left": self.left_trace})
        self.f = f
        self.arranged = arrange_op.trace

    def on_delta(self, port: int, time: Time, diff: Diff) -> None:
        self.run_keys((port, time, key_time(time)), self.group(diff).items())

    def kernel(self, header, key, values, record, outputs) -> None:
        port, time, at = header
        if port == 0:
            # Store first so later arranged diffs at this time pair
            # against it; then match the arrangement as of now (which
            # includes arranged diffs that arrived earlier, and not
            # ones still to come — exactly-once pairing).
            self.left_trace.update(key, at, values)
            pair_key(self.f, key, values, time, self.arranged, False,
                     record, outputs)
        else:
            # The ArrangeOp already stored this diff before forwarding;
            # pair it against the private left trace only.
            pair_key(self.f, key, values, time, self.left_trace, True,
                     record, outputs)
