"""The keyed reduce family.

``ReduceOp`` applies a user ``logic(key, values)`` to the accumulated
multiset of a key's values and emits ``(key, out_value)`` records. A key is
recomputed only at timestamps scheduled by the lub-closure scheduler —
untouched keys cost nothing, which is precisely the computation sharing
differential computation provides across the views of a collection.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable

from repro.differential.multiset import Diff
from repro.differential.operators.keyed import ScheduledOperator
from repro.differential.timestamp import Time
from repro.differential.trace import Trace
from repro.errors import DataflowError


class ReduceOp(ScheduledOperator):
    """Generic keyed reduction.

    ``logic(key, values)`` receives the accumulated input values for the key
    as a dict ``{value: multiplicity}`` with strictly positive
    multiplicities, and returns an iterable of output values (each emitted
    with multiplicity 1). When the accumulated input is empty the key's
    output is empty — ``logic`` is not called.
    """

    role = "reduce"

    def __init__(self, dataflow, scope, name, source,
                 logic: Callable[[Any, Dict[Any, int]], Iterable[Any]]):
        self.in_trace = Trace(name + ".in")
        super().__init__(dataflow, scope, name, [source],
                         {"in": self.in_trace, "out": Trace(name + ".out")})
        self.logic = logic

    def on_delta(self, port: int, time: Time, diff: Diff) -> None:
        grouped = self.group(diff)
        self.store("in", time, grouped)
        self.schedule.schedule(grouped, time)

    def kernel(self, header, key, _payload, record, outputs) -> None:
        time, at = header
        acc_in = self.in_trace.accumulate(key, at)  # borrowed
        record(key, max(1, len(acc_in)))
        target: Diff = {}
        if acc_in:
            for value, mult in acc_in.items():
                if mult < 0:
                    raise DataflowError(
                        f"reduce {self.name}: key {key!r} accumulated "
                        f"negative multiplicity {mult} for {value!r} "
                        f"at {time}"
                    )
            # The UDF gets its own copy: it may mutate its argument.
            for out_value in self.logic(key, dict(acc_in)):
                target[out_value] = target.get(out_value, 0) + 1
        self.correct_output(key, at, target, record, outputs[time])
