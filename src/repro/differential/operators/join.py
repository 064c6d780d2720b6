"""Bilinear equi-join on keyed records.

Both inputs must carry ``(key, value)`` records. For every pair of
differences ``δa @ t1`` (left) and ``δb @ t2`` (right) with the same key,
the join emits ``f(key, va, vb)`` with multiplicity ``ma * mb`` at timestamp
``lub(t1, t2)``.

Processing each arriving difference against the *other* side's trace counts
every pair exactly once, and emitting at the least upper bound is what makes
the join correct under partially ordered times: e.g. an edge added at view
``(1, 0)`` must produce corrections against distance diffs from iterations
``(0, j)`` of the previous view at times ``(1, j)`` — timestamps at which
neither input carries a difference (cf. the Bellman-Ford trace in the
paper's Table 1).

The per-key work — trace update, then pairing against the other side —
is :meth:`JoinOp.kernel`; grouping, dispatch to the key's owner and
metering are the shell's (:mod:`repro.differential.operators.keyed`).
"""

from __future__ import annotations

from typing import Any, Callable

from repro.differential.multiset import Diff
from repro.differential.operators.keyed import KeyedOperator, pair_key
from repro.differential.timestamp import Time
from repro.differential.trace import Trace, key_time


class JoinOp(KeyedOperator):
    """``left.join(right)`` with a result-builder ``f(key, va, vb)``."""

    role = "join"

    def __init__(self, dataflow, scope, name, left, right,
                 f: Callable[[Any, Any, Any], Any]):
        self.traces = (Trace(name + ".left"), Trace(name + ".right"))
        super().__init__(dataflow, scope, name, [left, right],
                         {"left": self.traces[0], "right": self.traces[1]})
        self.f = f

    def on_delta(self, port: int, time: Time, diff: Diff) -> None:
        # The pairing is bilinear, so pairing a key's whole value diff at
        # once produces exactly the per-record pairs.
        self.run_keys((port, time, key_time(time)), self.group(diff).items())

    def kernel(self, header, key, values, record, outputs) -> None:
        port, time, at = header
        # First incorporate into our own trace so the opposite side's
        # future deltas at this timestamp pair against it (each pair of
        # diffs is thus counted exactly once).
        self.traces[port].update(key, at, values)
        pair_key(self.f, key, values, time, self.traces[1 - port],
                 port == 1, record, outputs)
