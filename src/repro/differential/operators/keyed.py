"""The keyed-operator shell.

Differential computation saves work because keyed operators touch only
the keys whose inputs changed. Every such operator needs the same four
mechanisms around its per-key *kernel*, and this module is the one place
that implements them:

* **grouping** — :meth:`KeyedOperator.group` turns a record diff into
  ``{key: {value: multiplicity}}`` so traces, schedules and the meter are
  touched once per key, not once per record;
* **state placement** — each operator declares the traces it *owns* as a
  ``{tag: Trace}`` table; :meth:`KeyedOperator.store` writes a grouped
  diff to one of them, in this process on the inline backend and on each
  key's owning worker on the process backend (``docs/parallel.md``);
* **kernel dispatch and meter replay** — :meth:`KeyedOperator.run_keys`
  calls :meth:`KeyedOperator.kernel` per key, either in-process against
  the real meter, or on the owning workers, which return the meter events
  the kernel would have recorded; the coordinator replays them in the
  original key order, so counters, fault-plan firing and tracer streams
  are byte-identical across backends;
* **introspection** — resident-state statistics and the worker-side
  ``remote_*`` entry points derive from the trace table.

Traces are written and read at key times (``repro.differential.trace``'s
read contract): the shell and the operators fold a pass's time with
:func:`~repro.differential.trace.key_time` once, in the header every
kernel of the pass shares.

An operator built on the shell is its traces, its scheduling and its
kernel. ``Dataflow`` registers every :class:`KeyedOperator` with the
cluster and ``repro.differential.debug`` reads the trace table, so a new
keyed operator needs no edit outside its own module.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import repeat
from typing import Any, Callable, DefaultDict, Dict, Iterable, Tuple

from repro.differential.multiset import Diff, add_into, consolidate
from repro.differential.operators.base import Operator
from repro.differential.timestamp import Time, lub
from repro.differential.trace import TimeSchedule, Trace, key_time

#: ``record(key, units)`` — the meter on the inline backend, an event
#: collector inside a worker.
Record = Callable[[Any, int], None]
#: Emitted differences by output time; kernels add records into it.
Outputs = DefaultDict[Time, Diff]


class KeyedOperator(Operator):
    """An operator whose state and work are partitioned by record key."""

    #: Names the operator family in errors.
    role = "keyed"

    def __init__(self, dataflow, scope, name, inputs,
                 traces: Dict[str, Trace]):
        super().__init__(dataflow, scope, name, inputs)
        #: ``{tag: Trace}`` — the traces this operator owns. A trace it
        #: only reads (a shared arrangement) belongs to the operator that
        #: writes it and is not listed here, so it is counted exactly
        #: once.
        self.owned = traces

    # -- coordinator side ---------------------------------------------------

    def group(self, diff: Diff) -> Dict[Any, Diff]:
        """Split a ``(key, value)`` record diff into per-key value diffs."""
        grouped: Dict[Any, Diff] = {}
        for rec, mult in diff.items():
            try:
                key, value = rec
            except (TypeError, ValueError):
                raise TypeError(
                    f"{self.role} operator {self.name} takes (key, value) "
                    f"records; got {rec!r}") from None
            slot = grouped.get(key)
            if slot is None:
                grouped[key] = {value: mult}
            else:
                slot[value] = slot.get(value, 0) + mult
        return grouped

    def store(self, tag: str, time: Time, grouped: Dict[Any, Diff]) -> None:
        """Add per-key diffs at ``time`` to the owned trace ``tag``.

        On the process backend each key's update goes to its owning
        worker; pipes are FIFO, so it lands before any kernel that reads
        it (here or in a downstream operator).
        """
        cluster = self.dataflow.cluster
        if cluster is None:
            self.owned[tag].update_batch(time, grouped)
        else:
            cluster.post_updates(self.index, tag, time, grouped)

    def run_keys(self, header: Any,
                 items: Iterable[Tuple[Any, Any]]) -> None:
        """Run the kernel for each ``(key, payload)``; send what it emits.

        Inline, every kernel call writes into one shared accumulator and
        meters as it goes. On a cluster the keys' owners run the kernels
        and the coordinator replays each key's meter events, then merges
        its outputs, in the order of ``items`` — the call sequence the
        inline loop makes. Either way the accumulated differences are
        consolidated and sent in timestamp order.
        """
        outputs: Outputs = defaultdict(dict)
        record = self.dataflow.meter.record
        cluster = self.dataflow.cluster
        if cluster is None:
            kernel = self.kernel
            for key, payload in items:
                kernel(header, key, payload, record, outputs)
        else:
            items = list(items)
            replies = cluster.run_tasks(self.index, header, items)
            for key, _payload in items:
                events, key_outputs = replies[key]
                for units in events:
                    record(key, units)
                for out_time, emitted in key_outputs.items():
                    # Not add_into: a record cancelled mid-merge must keep
                    # its slot, as it does in the inline accumulator, or
                    # downstream grouping order would differ.
                    slot = outputs[out_time]
                    for rec, mult in emitted.items():
                        slot[rec] = slot.get(rec, 0) + mult
        for out_time in sorted(outputs):
            self.send(out_time, consolidate(outputs[out_time]))

    def kernel(self, header: Any, key: Any, payload: Any, record: Record,
               outputs: Outputs) -> None:
        """Do one key's work (runs wherever the key's state lives).

        May touch only this key's entries in the traces the operator
        reads, the user callable, ``record`` and ``outputs`` — never the
        dataflow, the meter or another key's state, none of which exist
        on a worker.
        """
        raise NotImplementedError(f"{self.name} has no per-key kernel")

    # -- derived from the trace table -----------------------------------------

    def local_traces(self) -> Iterable[Trace]:
        return self.owned.values()

    def record_count(self) -> int:
        """Stored difference entries in this process's owned traces."""
        return sum(trace.record_count() for trace in self.local_traces())

    def key_count(self) -> int:
        """Distinct keys with state in this process's owned traces."""
        return len(set().union(*(trace.keys()
                                 for trace in self.local_traces())))

    # -- worker side (called by the cluster's message loop) -------------------

    def remote_update(self, payload) -> None:
        tag, time, grouped = payload
        self.owned[tag].update_batch(time, grouped)

    def remote_task(self, payload) -> Dict[Any, Tuple[tuple, Dict]]:
        header, items = payload
        kernel = self.kernel
        replies: Dict[Any, Tuple[tuple, Dict]] = {}
        for key, values in items:
            events: list = []
            key_outputs: Outputs = defaultdict(dict)
            kernel(header, key, values,
                   lambda _key, units: events.append(units), key_outputs)
            replies[key] = (tuple(events), dict(key_outputs))
        return replies

    def remote_stats(self) -> Tuple[int, int]:
        return self.key_count(), self.record_count()


def pair_key(f: Callable[[Any, Any, Any], Any], key: Any, values: Diff,
             time: Time, trace: Trace, flip: bool, record: Record,
             outputs: Outputs) -> None:
    """Pair one key's value diff at ``time`` with its history in ``trace``.

    The join kernels' shared body. The caller has already stored
    ``values`` on its own side, so a later difference from the other side
    pairs against it and every pair of differences is counted once.

    For every stored entry ``vals @ t2`` this emits ``f(key, value, v2)``
    — ``f(key, v2, value)`` when ``flip``, i.e. when ``values`` arrived
    on the right port — with the product multiplicity at
    ``lub(time, t2)``: corrections land at timestamps where neither input
    carries a difference (the Bellman-Ford trace of the paper's Table 1).
    Stored times are key times, whose epoch 0 is below ``time``'s, so the
    join lands in ``time``'s epoch. Stored times shorter than ``time``
    come from an arrangement entered from an outer scope and act as if
    padded with zero loop coordinates.
    """
    stored = trace.get(key)
    record(key, len(values))
    if stored is None:
        return
    tlen = len(time)
    scanned = 0
    for t2, vals in stored.entries.items():
        if len(t2) != tlen:
            t2 = t2 + (0,) * (tlen - len(t2))
        slot = outputs[lub(time, t2)]
        scanned += len(vals)
        for value, mult in values.items():
            for v2, m2 in vals.items():
                out = f(key, v2, value) if flip else f(key, value, v2)
                slot[out] = slot.get(out, 0) + mult * m2
    if scanned:
        record(key, scanned * len(values))


class ScheduledOperator(KeyedOperator):
    """A keyed operator that recomputes keys at scheduled times.

    The reduce family and the loop variable: inputs are stored and the
    key is scheduled (:class:`TimeSchedule` adds the lub-closure); at
    each scheduled time the kernel derives the key's *target* output and
    :meth:`correct_output` turns it into a difference against the owned
    ``"out"`` trace. The schedule stays on the coordinator so the pass
    structure is backend independent.
    """

    def __init__(self, dataflow, scope, name, inputs,
                 traces: Dict[str, Trace]):
        super().__init__(dataflow, scope, name, inputs, traces)
        self.out_trace = traces["out"]
        self.schedule = TimeSchedule()

    def flush(self, time: Time) -> None:
        keys = self.schedule.tasks_at(time)
        if keys:
            self.run_keys(self.header(time), zip(keys, repeat(None)))

    def header(self, time: Time) -> Tuple:
        """What every kernel of the pass at ``time`` shares: the time and
        its key time, folded once per pass."""
        return time, key_time(time)

    def correct_output(self, key: Any, at: Time, target: Diff,
                       record: Record, out: Diff) -> None:
        """Make the key's accumulated output at key time ``at`` equal
        ``target``.

        ``target`` is only read (kernels pass borrowed accumulations).
        The correction is ``target`` minus the output accumulated at
        ``<= at``; it is emitted into ``out`` and added to the entry
        stored at ``at``, which the accumulation cache (anchored at ``at``
        by the read) absorbs in place.
        """
        delta = dict(target)
        prior = self.out_trace.get(key)
        if prior is not None:
            add_into(delta, prior.accumulate(at), factor=-1)
        if delta:
            self.out_trace.update(key, at, delta)
            record(key, len(delta))
            for value, mult in delta.items():
                rec = (key, value)
                out[rec] = out.get(rec, 0) + mult

    def pending_times(self) -> Iterable[Time]:
        return self.schedule.pending_times()

    def discard_pending_beyond(self, prefix: Time, max_iter: int) -> None:
        drop = [
            t for t in self.schedule.pending_times()
            if t[:len(prefix)] == prefix and t[len(prefix)] > max_iter
        ]
        for t in drop:
            self.schedule.tasks_at(t)
