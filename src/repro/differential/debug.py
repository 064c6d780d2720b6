"""Introspection and debugging tools for differential dataflows.

* :func:`operator_record_counts` — stored trace entries per keyed
  operator, for ``explain``'s trace-memory report.
* :func:`check_consolidated` — no stored difference holds a zero
  multiplicity or an empty time slot.
* :func:`check_caches` — every key's cached accumulation equals a scan
  of its entries (:meth:`KeyTrace.check_cache`).
* :func:`check_consistency` — re-derive every keyed operator's output from
  its input trace at a probe time and compare against the stored output
  trace: a direct executable statement of the differential invariant
  ``Out(t) = Op(In(t))``.
"""

from __future__ import annotations

from typing import Dict, List

from repro.differential.dataflow import Dataflow, Scope
from repro.differential.operators.base import Operator
from repro.differential.operators.keyed import KeyedOperator
from repro.differential.operators.reduce import ReduceOp
from repro.differential.trace import key_time
from repro.errors import DataflowError


def _scope_ops(dataflow: Dataflow) -> Dict[Scope, List[Operator]]:
    return dataflow._ops_by_scope  # noqa: SLF001 - debug tooling


def _keyed_operators(dataflow: Dataflow) -> List[KeyedOperator]:
    return [op for ops in _scope_ops(dataflow).values() for op in ops
            if isinstance(op, KeyedOperator)]


def operator_record_counts(dataflow: Dataflow) -> Dict[str, int]:
    """Stored trace entries per keyed operator. Feeds ``explain``'s
    trace-memory report."""
    if dataflow.cluster is None:
        return {op.name: op.record_count()
                for op in _keyed_operators(dataflow)}
    resident = dataflow.cluster.stats()
    return {op.name: resident[op.index][1]
            for op in _keyed_operators(dataflow)}


def _require_local_state(dataflow: Dataflow, check: str) -> None:
    """The trace checkers read key state in this process; on a live
    cluster it is on the workers and a scan here would pass vacuously."""
    if dataflow.cluster is not None:
        raise DataflowError(
            f"{check} reads keyed traces in this process, but on "
            f"backend={dataflow.backend!r} they live on the worker "
            f"processes; run the check on an inline dataflow")


def check_consolidated(dataflow: Dataflow) -> List[str]:
    """Assert the consolidation invariant across all stored traces.

    Every difference the engine stores must be consolidated: no
    zero-multiplicity values and no empty time slots. Emptiness is a
    plain falsiness test everywhere *because* of this invariant, so a
    violation here means some operator stored an unconsolidated diff and
    emptiness checks downstream are no longer trustworthy. Returns
    human-readable violations (empty = invariant holds).
    """
    _require_local_state(dataflow, "check_consolidated")
    problems: List[str] = []
    for op in _keyed_operators(dataflow):
        for trace in op.local_traces():
            for key in trace.keys():
                for time, diff in trace.get(key).entries.items():
                    if not diff:
                        problems.append(
                            f"{op.name} ({trace.name}): key {key!r} "
                            f"stores an empty diff at {time}")
                    elif any(mult == 0 for mult in diff.values()):
                        problems.append(
                            f"{op.name} ({trace.name}): key {key!r} "
                            f"stores zero multiplicities at {time}")
    return problems


def check_caches(dataflow: Dataflow) -> List[str]:
    """Check every stored key's accumulation cache against its entries.

    Returns human-readable violations (empty = every cache is exact).
    """
    _require_local_state(dataflow, "check_caches")
    problems: List[str] = []
    for op in _keyed_operators(dataflow):
        for trace in op.local_traces():
            for key in trace.keys():
                try:
                    trace.get(key).check_cache()
                except AssertionError as error:
                    problems.append(
                        f"{op.name} ({trace.name}): key {key!r}: {error}")
    return problems


def check_consistency(dataflow: Dataflow) -> List[str]:
    """Verify ``Out(t) == logic(In(t))`` for every reduce at the last
    completed epoch (the only epoch a keyed trace may still be read at).

    Returns a list of human-readable violation descriptions (empty when
    consistent).
    """
    _require_local_state(dataflow, "check_consistency")
    time = (dataflow.epoch,)
    problems: List[str] = []
    for ops in _scope_ops(dataflow).values():
        for op in ops:
            if not isinstance(op, ReduceOp):
                continue
            probe = key_time(
                time + (1 << 30,) * (op.scope.depth - len(time)))
            for key in list(op.in_trace.keys()):
                # Accumulations are borrowed and consolidated: read only.
                acc_in = op.in_trace.accumulate(key, probe)
                expected = {}
                if acc_in:
                    if any(mult < 0 for mult in acc_in.values()):
                        problems.append(
                            f"{op.name}: key {key!r} input accumulates "
                            f"negative multiplicities at {probe}")
                        continue
                    for value in op.logic(key, dict(acc_in)):
                        expected[value] = expected.get(value, 0) + 1
                actual = op.out_trace.accumulate(key, probe)
                if expected != actual:
                    problems.append(
                        f"{op.name}: key {key!r} at {probe}: expected "
                        f"{expected}, stored {actual}")
    return problems
