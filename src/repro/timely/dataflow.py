"""A timely-dataflow-style batch layer for acyclic data-parallel jobs.

The paper's Graphsurge uses Timely Dataflow *directly* (without the
differential layer) for the embarrassingly parallel steps. This module
provides that layer for two of them — evaluating view predicates over
edges (the EBM) and computing aggregate views: a small BSP dataflow where
every stream is sharded across W simulated workers, operators process
shards independently, and ``exchange`` moves records between workers by
key hash (the cost model of a timely cluster). It always runs in this
process; shard ``w``'s work is charged to worker ``w`` of the meter. (The
Hamming-distance step of Algorithm 1 is a blocked matrix product in
:mod:`repro.core.ordering.hamming`, metered the same way.)

Iterative/incremental computations do NOT belong here — they run on
:mod:`repro.differential`, which layers differential semantics on the same
worker/metering substrate.

Example::

    td = TimelyDataflow(workers=4)
    edges = td.input("edges")
    degrees = (edges
               .exchange(lambda rec: rec[0])
               .aggregate(lambda rec: rec[0], lambda recs: len(recs)))
    out = degrees.capture("degrees")
    td.run({"edges": [(0, 1), (0, 2), (1, 2)]})
    assert sorted(out.records) == [(0, 2), (1, 1)]
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import DataflowError
from repro.timely.meter import WorkMeter
from repro.timely.worker import shard_for

Shards = List[List[Any]]


class _TOperator:
    """A node of the batch dataflow graph."""

    def __init__(self, dataflow: "TimelyDataflow", name: str,
                 inputs: Sequence["_TOperator"]):
        self.dataflow = dataflow
        self.name = name
        self.inputs = list(inputs)
        self.output: Optional[Shards] = None
        dataflow._register(self)

    def evaluate(self, input_shards: List[Shards]) -> Shards:
        raise NotImplementedError

    def _empty(self) -> Shards:
        return [[] for _ in range(self.dataflow.workers)]


class _ShardedOp(_TOperator):
    """An operator whose work is one independent kernel per worker shard.

    Subclasses implement :meth:`shard_kernel`, which maps one worker's
    input shard(s) to ``(events, payload)`` where ``events`` is a tuple of
    meter batch sizes (each entry meaning "that many unit-cost records
    touched by this worker, in order") and ``payload`` is the shard's
    output.
    """

    def shard_kernel(self, worker: int,
                     shard_inputs: List[List[Any]]) -> Tuple[tuple, Any]:
        raise NotImplementedError

    def merge_shard(self, worker: int, payload: Any, out: Shards) -> None:
        out[worker] = payload

    def evaluate(self, input_shards):
        meter = self.dataflow.meter
        out = self._empty()
        for worker in range(self.dataflow.workers):
            events, payload = self.shard_kernel(
                worker, [shards[worker] for shards in input_shards])
            for count in events:
                for _record in range(count):
                    # Shard w runs on worker w: charge its frame directly.
                    # Hashing the index as if it were a key would pile
                    # several shards onto one worker.
                    meter.record(worker, worker=worker)
            self.merge_shard(worker, payload, out)
        return out


class _InputOp(_TOperator):
    def __init__(self, dataflow, name):
        super().__init__(dataflow, name, [])
        self.pending: Optional[List[Any]] = None

    def evaluate(self, input_shards):
        shards = self._empty()
        records = self.pending or []
        # Inputs arrive round-robin, like records read from partitioned
        # files in timely.
        for index, record in enumerate(records):
            shards[index % self.dataflow.workers].append(record)
        self.pending = None
        return shards


class _MapOp(_ShardedOp):
    def __init__(self, dataflow, name, source, fn, flat=False):
        super().__init__(dataflow, name, [source])
        self.fn = fn
        self.flat = flat

    def shard_kernel(self, worker, shard_inputs):
        shard = shard_inputs[0]
        result: List[Any] = []
        for record in shard:
            if self.flat:
                result.extend(self.fn(record))
            else:
                result.append(self.fn(record))
        return (len(shard),), result


class _FilterOp(_ShardedOp):
    def __init__(self, dataflow, name, source, predicate):
        super().__init__(dataflow, name, [source])
        self.predicate = predicate

    def shard_kernel(self, worker, shard_inputs):
        shard = shard_inputs[0]
        result = [record for record in shard if self.predicate(record)]
        return (len(shard),), result


class _ExchangeOp(_ShardedOp):
    def __init__(self, dataflow, name, source, key_fn):
        super().__init__(dataflow, name, [source])
        self.key_fn = key_fn

    def shard_kernel(self, worker, shard_inputs):
        shard = shard_inputs[0]
        workers = self.dataflow.workers
        routed: List[List[Any]] = [[] for _ in range(workers)]
        for record in shard:
            routed[shard_for(self.key_fn(record), workers)].append(record)
        return (len(shard),), routed

    def merge_shard(self, worker, payload, out):
        # Fragments merge in source-worker order (the caller iterates
        # workers 0..W-1), matching the order the old in-loop append
        # produced.
        for target, fragment in enumerate(payload):
            out[target].extend(fragment)


class _ConcatOp(_TOperator):
    def evaluate(self, input_shards):
        out = self._empty()
        for shards in input_shards:
            for worker, shard in enumerate(shards):
                out[worker].extend(shard)
        return out


class _AggregateOp(_ShardedOp):
    """Group by key *within each worker* and fold each group.

    Callers exchange by the group key first (as in timely) so each group
    lives on exactly one worker; :meth:`TStream.aggregate` does this
    automatically.
    """

    def __init__(self, dataflow, name, source, key_fn, fold):
        super().__init__(dataflow, name, [source])
        self.key_fn = key_fn
        self.fold = fold

    def shard_kernel(self, worker, shard_inputs):
        shard = shard_inputs[0]
        groups: Dict[Any, List[Any]] = {}
        for record in shard:
            groups.setdefault(self.key_fn(record), []).append(record)
        result = [(key, self.fold(records))
                  for key, records in groups.items()]
        # One unit per record grouped, then one per group folded — the
        # same two metering phases the in-loop version performed.
        return (len(shard), len(groups)), result


class _JoinOp(_ShardedOp):
    """Hash equi-join of two keyed streams (records are (key, value))."""

    def __init__(self, dataflow, name, left, right, merge):
        super().__init__(dataflow, name, [left, right])
        self.merge = merge

    def shard_kernel(self, worker, shard_inputs):
        left, right = shard_inputs
        result: List[Any] = []
        table: Dict[Any, List[Any]] = {}
        for key, value in left:
            table.setdefault(key, []).append(value)
        for key, value in right:
            for other in table.get(key, ()):
                result.append(self.merge(key, other, value))
        # One unit per build-side record, then one per probe-side record.
        return (len(left), len(right)), result


class _CaptureOp(_TOperator):
    def __init__(self, dataflow, name, source):
        super().__init__(dataflow, name, [source])
        self.records: List[Any] = []

    def evaluate(self, input_shards):
        self.records = [record
                        for shard in input_shards[0]
                        for record in shard]
        return input_shards[0]


class TStream:
    """Fluent handle on a batch stream."""

    def __init__(self, dataflow: "TimelyDataflow", op: _TOperator):
        self.dataflow = dataflow
        self.op = op

    def map(self, fn: Callable[[Any], Any], name: str = "map") -> "TStream":
        return TStream(self.dataflow,
                       _MapOp(self.dataflow, name, self.op, fn))

    def flat_map(self, fn: Callable[[Any], Iterable[Any]],
                 name: str = "flat_map") -> "TStream":
        return TStream(self.dataflow,
                       _MapOp(self.dataflow, name, self.op, fn, flat=True))

    def filter(self, predicate: Callable[[Any], bool],
               name: str = "filter") -> "TStream":
        return TStream(self.dataflow,
                       _FilterOp(self.dataflow, name, self.op, predicate))

    def exchange(self, key_fn: Callable[[Any], Any],
                 name: str = "exchange") -> "TStream":
        """Re-shard records across workers by a key (timely's exchange)."""
        return TStream(self.dataflow,
                       _ExchangeOp(self.dataflow, name, self.op, key_fn))

    def concat(self, *others: "TStream") -> "TStream":
        ops = [self.op] + [other.op for other in others]
        return TStream(self.dataflow,
                       _ConcatOp(self.dataflow, "concat", ops))

    def aggregate(self, key_fn: Callable[[Any], Any],
                  fold: Callable[[List[Any]], Any],
                  name: str = "aggregate") -> "TStream":
        """Exchange by key, then fold each group: ``(key, fold(records))``."""
        exchanged = self.exchange(key_fn, name=name + ".exchange")
        return TStream(self.dataflow,
                       _AggregateOp(self.dataflow, name, exchanged.op,
                                    key_fn, fold))

    def join(self, other: "TStream",
             merge: Callable[[Any, Any, Any], Any],
             name: str = "join") -> "TStream":
        """Hash join of (key, value) streams; both sides are exchanged."""
        left = self.exchange(lambda rec: rec[0], name=name + ".xl")
        right = other.exchange(lambda rec: rec[0], name=name + ".xr")
        return TStream(self.dataflow,
                       _JoinOp(self.dataflow, name, left.op, right.op,
                               merge))

    def capture(self, name: str = "capture") -> _CaptureOp:
        return _CaptureOp(self.dataflow, name, self.op)


class TimelyDataflow:
    """A runnable batch dataflow over ``workers`` simulated workers."""

    def __init__(self, workers: int = 1, meter: Optional[WorkMeter] = None):
        self.workers = max(1, workers)
        self.meter = meter if meter is not None else WorkMeter(self.workers)
        self._operators: List[_TOperator] = []
        self._inputs: Dict[str, _InputOp] = {}

    def _register(self, op: _TOperator) -> None:
        self._operators.append(op)

    def input(self, name: str) -> TStream:
        if name in self._inputs:
            raise DataflowError(f"duplicate input {name!r}")
        op = _InputOp(self, name)
        self._inputs[name] = op
        return TStream(self, op)

    def run(self, inputs: Optional[Dict[str, Iterable[Any]]] = None) -> None:
        """Execute the dataflow once over the given input records.

        Operators run in construction (= topological) order; each operator
        pass is one superstep.
        """
        for name, records in (inputs or {}).items():
            op = self._inputs.get(name)
            if op is None:
                raise DataflowError(f"unknown input {name!r}")
            op.pending = list(records)
        for op in self._operators:
            shards = [upstream.output for upstream in op.inputs]
            for upstream, shard in zip(op.inputs, shards):
                if shard is None:
                    raise DataflowError(
                        f"operator {op.name} ran before its input "
                        f"{upstream.name}")
            self.meter.begin_step()
            op.output = op.evaluate(shards)
            self.meter.end_step()
