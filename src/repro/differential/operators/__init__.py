"""Differential dataflow operators.

Operators are nodes of the dataflow DAG. Three families exist:

* **Linear** operators (map, filter, concat, negate, ...) transform each
  incoming difference independently and forward it synchronously.
* **Bilinear** join processes each incoming difference against the opposite
  input's full difference trace, emitting products at the least upper bound
  of the two timestamps (this is how real Differential Dataflow joins work,
  and it is required for correctness under partially ordered times).
* **Keyed** operators (the reduce family and the loop variable) keep per-key
  traces and recompute a key's output only at timestamps scheduled by the
  lub-closure scheduler in :mod:`repro.differential.trace`.

Joins, arrangements and the keyed family are all partitioned by record
key; they share one shell, :mod:`repro.differential.operators.keyed`,
which owns grouping, key-state placement, kernel dispatch and metering.
"""

from repro.differential.operators.base import Operator
from repro.differential.operators.io import InputOp, CaptureOp
from repro.differential.operators.linear import (
    MapOp,
    FlatMapOp,
    FilterOp,
    ConcatOp,
    NegateOp,
    InspectOp,
)
from repro.differential.operators.join import JoinOp
from repro.differential.operators.reduce import ReduceOp
from repro.differential.operators.iterate import EnterOp, IterateOp, VariableOp

__all__ = [
    "Operator",
    "InputOp",
    "CaptureOp",
    "MapOp",
    "FlatMapOp",
    "FilterOp",
    "ConcatOp",
    "NegateOp",
    "InspectOp",
    "JoinOp",
    "ReduceOp",
    "EnterOp",
    "IterateOp",
    "VariableOp",
]
