"""Difference traces: per-key histories of timestamped differences.

A trace stores, for each key, the list of ``(time, value-diff)`` entries an
operator has observed or produced. Keyed operators use traces both to
*accumulate* a key's state at a time ``t`` (summing entries at times
``s <= t`` in the product order) and to decide which (key, time) pairs need
recomputation — the lub-closure scheduling described in DESIGN.md §5.

Accumulation is cached: each :class:`KeyTrace` remembers the sum of every
entry in the past of the last queried time (the *covered prefix*) plus the
set of stored times outside it, so a query at a later time only scans the
uncovered suffix. The engine queries each key at lexicographically
increasing times (epoch-major, then loop coordinates), so within an epoch
every accumulation after the first is incremental; only an epoch rollover
pays a full rescan, after which the cache re-anchors. Compaction
(:meth:`KeyTrace.compact_below`) maintains the cache instead of
invalidating it: merging a past-epoch entry into its epoch-0
representative can only move it *into* the covered prefix. Callers
*borrow* the cached sum: an accumulation is read, never mutated or kept
past the key's next trace operation.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Iterator, Optional, Set

from repro.differential.multiset import Diff, add_into, consolidate
from repro.differential.timestamp import Time, leq, lub

#: A key's history folds (:meth:`Trace.maybe_compact`) once it holds more
#: than this many distinct times.
KEY_FOLD_THRESHOLD = 24
#: A key's scheduled-time set folds (:meth:`TimeSchedule.schedule`) once
#: it holds more than this many times.
SCHEDULE_FOLD_THRESHOLD = 48


class KeyTrace:
    """Trace of differences for the values of a single key."""

    __slots__ = ("entries", "_cache_time", "_cache_acc", "_uncovered",
                 "_compacted_below")

    def __init__(self) -> None:
        # time -> {value: diff multiplicity}; the authoritative store.
        self.entries: Dict[Time, Diff] = {}
        # Accumulation cache: _cache_acc == Σ diffs at s <= _cache_time,
        # _uncovered == stored times NOT <= _cache_time. All mutation must
        # go through update/compact_below to keep these exact.
        self._cache_time: Optional[Time] = None
        self._cache_acc: Diff = {}
        self._uncovered: Set[Time] = set()
        # Epochs below this bound are already merged into their epoch-0
        # representatives; re-running compaction there is a no-op, so the
        # per-scan compaction probes can skip it in O(1).
        self._compacted_below = 0

    def compact_below(self, epoch: int) -> None:
        """Merge entries from epochs before ``epoch`` per iteration suffix.

        Once every time with epoch < ``epoch`` is in the past of the
        execution frontier, two entries ``(e1, *s)`` and ``(e2, *s)`` with
        ``e1, e2 < epoch`` compare identically against every future time,
        so they can be summed into the representative ``(0, *s)``. This is
        differential dataflow's trace compaction; it bounds history size by
        the number of distinct loop-iteration suffixes instead of the
        number of epochs (views) processed.

        The accumulation cache survives compaction: remapping a time to
        epoch 0 can only move it into the covered prefix (its suffix is
        unchanged and ``0 <=`` any cached epoch), and such entries are
        added to the cached sum as they move.
        """
        if epoch <= self._compacted_below:
            return
        self._compacted_below = epoch
        ct = self._cache_time
        cache = self._cache_acc
        merged: Dict[Time, Diff] = {}
        for time, diff in self.entries.items():
            if time[0] < epoch:
                rep = (0,) + time[1:]
                if (ct is not None and rep != time
                        and not leq(time, ct) and leq(rep, ct)):
                    # Entered the covered prefix by moving to epoch 0.
                    add_into(cache, diff)
            else:
                rep = time
            slot = merged.get(rep)
            if slot is None:
                merged[rep] = dict(diff)
            else:
                add_into(slot, diff)
        self.entries = {t: d for t, d in merged.items() if d}
        if ct is not None:
            self._uncovered = {t for t in self.entries if not leq(t, ct)}

    def update(self, time: Time, diff: Diff) -> None:
        if time[0] < self._compacted_below:
            # An out-of-frontier write (tests / replay) reopens the epoch
            # range for compaction.
            self._compacted_below = time[0]
        entries = self.entries
        slot = entries.get(time)
        if slot is None:
            entries[time] = dict(diff)
        else:
            add_into(slot, diff)
            if not slot:
                del entries[time]
        ct = self._cache_time
        if ct is not None:
            if len(time) == len(ct):
                for a, b in zip(time, ct):
                    if a > b:
                        break
                else:
                    # In the covered prefix: fold the delta into the cache.
                    add_into(self._cache_acc, diff)
                    return
            if time in entries:
                self._uncovered.add(time)
            else:
                self._uncovered.discard(time)

    def accumulate(self, time: Time) -> Diff:
        """Sum of diffs at all stored times ``s <= time`` (product order).

        Returns the cached sum itself, *borrowed*: it is consolidated and
        read-only, and valid until the next ``update``, ``accumulate`` or
        ``compact_below`` of this key. A query at (or after) the previously
        queried time only folds in the uncovered times it now covers; an
        incomparable query (epoch rollover) rescans once and re-anchors the
        cache there.
        """
        ct = self._cache_time
        if ct == time:
            return self._cache_acc
        entries = self.entries
        if ct is not None and leq(ct, time):
            # Advance: fold newly covered times into the cache.
            acc, uncovered = self._cache_acc, self._uncovered
            scan = uncovered
        else:
            # Rebase: full scan in entry order, anchored at this time.
            acc, uncovered = {}, set(entries)
            scan = entries
        covered = [s for s in scan if leq(s, time)]
        for s in covered:
            add_into(acc, entries[s])
        uncovered.difference_update(covered)
        self._cache_time = time
        self._cache_acc = acc
        self._uncovered = uncovered
        return acc

    def is_empty(self) -> bool:
        return not self.entries

    def check_cache(self) -> None:
        """Assert the cache invariants (debug/test aid; O(history))."""
        ct = self._cache_time
        if ct is None:
            return
        expected: Diff = {}
        uncovered = set()
        for s, diff in self.entries.items():
            if leq(s, ct):
                add_into(expected, diff)
            else:
                uncovered.add(s)
        if consolidate(dict(self._cache_acc)) != expected:
            raise AssertionError(
                f"accumulation cache at {ct} is {self._cache_acc}, "
                f"entries say {expected}")
        if self._uncovered != uncovered:
            raise AssertionError(
                f"uncovered set at {ct} is {self._uncovered}, "
                f"entries say {uncovered}")


class Trace:
    """A keyed difference trace: ``key -> KeyTrace``."""

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._keys: Dict[Any, KeyTrace] = {}

    def __contains__(self, key: Any) -> bool:
        return key in self._keys

    def key_trace(self, key: Any) -> KeyTrace:
        trace = self._keys.get(key)
        if trace is None:
            trace = KeyTrace()
            self._keys[key] = trace
        return trace

    def get(self, key: Any) -> "KeyTrace | None":
        return self._keys.get(key)

    def update(self, key: Any, time: Time, diff: Diff) -> None:
        if not diff:
            return
        self.key_trace(key).update(time, diff)

    def update_batch(self, time: Time, per_key: Dict[Any, Diff]) -> None:
        """Apply many per-key diffs at one time (the batched operator
        path: one trace touch per key instead of one per record)."""
        keys = self._keys
        for key, diff in per_key.items():
            if not diff:
                continue
            trace = keys.get(key)
            if trace is None:
                trace = KeyTrace()
                keys[key] = trace
            trace.update(time, diff)

    def accumulate(self, key: Any, time: Time) -> Diff:
        """The key's borrowed accumulation (see :meth:`KeyTrace.accumulate`)."""
        trace = self._keys.get(key)
        if trace is None:
            return {}
        return trace.accumulate(time)

    def keys(self) -> Iterator[Any]:
        return iter(self._keys)

    def compact_below(self, epoch: int) -> None:
        """Compact every key's history below ``epoch`` (streaming GC).

        The opportunistic :meth:`maybe_compact` only touches keys an
        operator happens to scan again; a long-running stream also needs
        a frontier-driven sweep so keys that went quiet stop holding one
        entry per past epoch. Keys whose entries cancel entirely are
        dropped. Re-running at the same bound is O(keys) thanks to the
        per-key ``_compacted_below`` guard.
        """
        empty = []
        for key, trace in self._keys.items():
            trace.compact_below(epoch)
            if trace.is_empty():
                empty.append(key)
        for key in empty:
            del self._keys[key]

    def maybe_compact(self, key: Any, epoch: int) -> None:
        """Compact one key's history once it has grown past
        :data:`KEY_FOLD_THRESHOLD` times.

        Called opportunistically by keyed operators right before they scan
        a key's entries, so only touched keys pay and the cost amortizes
        into the scan they were about to do anyway.
        """
        trace = self._keys.get(key)
        if trace is not None and len(trace.entries) > KEY_FOLD_THRESHOLD:
            trace.compact_below(epoch)

    def record_count(self) -> int:
        """Total number of stored (key, time, value) difference entries."""
        return sum(
            len(diff)
            for trace in self._keys.values()
            for diff in trace.entries.values()
        )


class TimeSchedule:
    """Incremental lub-closure scheduler for one keyed operator.

    Tracks, per key, the lub-closed set of times at which that key has (or
    may need) differences, and maintains a global agenda of pending
    (time -> keys) recompute tasks. When a new input-difference time ``t``
    arrives for a key, every join of ``t`` with the key's previously seen
    times is also scheduled — output corrections can be required at those
    joins even without any input difference there.
    """

    def __init__(self) -> None:
        self._seen: Dict[Any, Set[Time]] = {}
        self._agenda: Dict[Time, Set[Any]] = {}

    def schedule(self, key: Any, time: Time) -> None:
        seen = self._seen.get(key)
        if seen is None:
            seen = self._seen[key] = set()
        elif len(seen) > SCHEDULE_FOLD_THRESHOLD:
            # Compact: times from past epochs collapse per iteration suffix
            # (same argument as KeyTrace.compact_below — their joins with
            # any current/future time are unchanged). The map preserves
            # joins, so the image of a lub-closed set is lub-closed.
            epoch = time[0]
            seen = {((0,) + s[1:]) if s[0] < epoch else s for s in seen}
            self._seen[key] = seen
        # `seen` is lub-closed, so closing it over `time` adds exactly the
        # joins {lub(s, time)} — and those are also every closure element
        # >= time, i.e. every time whose accumulation a diff at `time`
        # changes. They are lex->= the execution cursor, so no task lands
        # in the past. (The join is inlined for arity 2, the hot path.)
        if len(time) == 2:
            t0, t1 = time
            ups = {(a if a >= t0 else t0, b if b >= t1 else t1)
                   for a, b in seen}
        else:
            ups = {lub(s, time) for s in seen}
        ups.add(time)
        seen |= ups
        agenda = self._agenda
        for u in ups:
            slot = agenda.get(u)
            if slot is None:
                agenda[u] = {key}
            else:
                slot.add(key)

    def tasks_at(self, time: Time) -> Set[Any]:
        """Pop and return the keys scheduled at exactly ``time``."""
        return self._agenda.pop(time, set())

    def pending_times(self) -> Iterable[Time]:
        return self._agenda.keys()
