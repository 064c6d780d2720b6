"""Difference traces: per-key histories of timestamped differences.

A trace stores, for each key, the ``(time, value-diff)`` entries an
operator has observed or produced. Keyed operators use traces both to
*accumulate* a key's state at a time ``t`` (summing entries at times
``s <= t`` in the product order) and to decide which (key, time) pairs need
recomputation — the lub-closure scheduling described in DESIGN.md §5.

**Read contract: no keyed read below the highest epoch written.** The
epoch driver only moves forward (a rebuild makes a fresh dataflow, a
resume replays), so a keyed operator reads its traces only at times of
the current epoch. Two times ``(e1, *s)`` and ``(e2, *s)`` with
``e1, e2 <= current`` then compare identically against every time that
will ever be read, so a keyed trace stores every difference at its
:func:`key_time` ``(0, *suffix)``: one entry per loop suffix and none per
epoch. A root-scope key holds a single running sum (differential
dataflow's total-order ``count_total`` case), and a key whose entries
cancel is dropped by the write that empties it. Callers fold a time with
:func:`key_time` once per batch or pass, never once per key.

The per-epoch capture log (:class:`KeyTrace` with real epochs, kept by
``CaptureOp``) is the one store that folds history after the fact:
:meth:`KeyTrace.compact_below` sums closed epochs into their epoch-0
representatives when the stream driver asks.

Accumulation is cached: each :class:`KeyTrace` remembers the sum of every
entry in the past of the last queried time (the *covered prefix*) plus the
set of stored times outside it, so a query at a later time only scans the
uncovered suffix; an incomparable query rescans once and re-anchors the
cache there. Callers *borrow* the cached sum: an accumulation is read,
never mutated or kept past the key's next trace operation.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Iterator, Optional, Set

from repro.differential.multiset import Diff, add_into, consolidate
from repro.differential.timestamp import Time, leq, lub


def key_time(time: Time) -> Time:
    """The time a keyed trace stores and reads ``time`` at: its loop
    suffix behind epoch 0 (see the module's read contract)."""
    return (0,) if len(time) == 1 else (0,) + time[1:]


class KeyTrace:
    """Trace of differences for the values of a single key."""

    __slots__ = ("entries", "_cache_time", "_cache_acc", "_uncovered")

    def __init__(self) -> None:
        # time -> {value: diff multiplicity}; the authoritative store.
        self.entries: Dict[Time, Diff] = {}
        # Accumulation cache: _cache_acc == Σ diffs at s <= _cache_time,
        # _uncovered == stored times NOT <= _cache_time. All mutation must
        # go through update/compact_below to keep these exact.
        self._cache_time: Optional[Time] = None
        self._cache_acc: Diff = {}
        self._uncovered: Set[Time] = set()

    def compact_below(self, epoch: int) -> None:
        """Merge entries from epochs before ``epoch`` per iteration suffix.

        The capture log's fold. Once every time with epoch < ``epoch`` is
        closed, two entries ``(e1, *s)`` and ``(e2, *s)`` with
        ``e1, e2 < epoch`` compare identically against every later read,
        so they are summed into the representative ``(0, *s)``; exact
        per-epoch reads below ``epoch`` are forfeited. Re-running at the
        same bound finds nothing left to merge.

        The accumulation cache survives compaction: remapping a time to
        epoch 0 can only move it into the covered prefix (its suffix is
        unchanged and ``0 <=`` any cached epoch), and such entries are
        added to the cached sum as they move.
        """
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
            if time == ct or leq(time, ct):
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
        incomparable query rescans once and re-anchors the cache there.
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
    """A keyed difference trace: ``key -> KeyTrace``, written and read at
    key times (:func:`key_time`; see the module's read contract)."""

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._keys: Dict[Any, KeyTrace] = {}

    def __contains__(self, key: Any) -> bool:
        return key in self._keys

    def get(self, key: Any) -> "KeyTrace | None":
        return self._keys.get(key)

    def update(self, key: Any, at: Time, diff: Diff) -> None:
        """Add one key's ``diff`` at key time ``at``."""
        if not diff:
            return
        keys = self._keys
        trace = keys.get(key)
        if trace is None:
            trace = keys[key] = KeyTrace()
        trace.update(at, diff)
        if not trace.entries:
            del keys[key]

    def update_batch(self, time: Time, per_key: Dict[Any, Diff]) -> None:
        """Apply many per-key diffs at one time (the batched operator
        path: one fold of ``time`` and one trace touch per key)."""
        at = key_time(time)
        keys = self._keys
        for key, diff in per_key.items():
            if not diff:
                continue
            trace = keys.get(key)
            if trace is None:
                trace = keys[key] = KeyTrace()
            trace.update(at, diff)
            if not trace.entries:
                del keys[key]

    def accumulate(self, key: Any, at: Time) -> Diff:
        """The key's borrowed accumulation at key time ``at`` (see
        :meth:`KeyTrace.accumulate`)."""
        trace = self._keys.get(key)
        if trace is None:
            return {}
        return trace.accumulate(at)

    def keys(self) -> Iterator[Any]:
        return iter(self._keys)

    def record_count(self) -> int:
        """Total number of stored (key, time, value) difference entries."""
        return sum(
            len(diff)
            for trace in self._keys.values()
            for diff in trace.entries.values()
        )


class TimeSchedule:
    """Incremental lub-closure scheduler for one keyed operator.

    Keeps, per key, the lub-closed set of loop suffixes at which that key
    has seen differences, and a global agenda of pending (time -> keys)
    recompute tasks. When a new input-difference time ``t = (e, *s)``
    arrives for a key, every join of ``t`` with the key's earlier times is
    also scheduled — output corrections can be required at those joins
    even without any input difference there. Earlier times have epochs
    ``<= e`` (the driver only moves forward), so those joins are exactly
    ``(e, *lub(s, s'))`` over the seen suffixes ``s'``; a root-scope key
    has one suffix, ``()``, and its closure is just ``{t}``.
    """

    def __init__(self) -> None:
        self._seen: Dict[Any, Set[Time]] = {}
        self._agenda: Dict[Time, Set[Any]] = {}

    def schedule(self, keys: Iterable[Any], time: Time) -> None:
        """Schedule each of ``keys`` at ``time`` and its new joins.

        The joins are every closure element ``>= time``, i.e. every time
        whose accumulation a diff at ``time`` changes. They are lex-``>=``
        the execution cursor, so no task lands in the past.
        """
        agenda = self._agenda
        if len(time) == 1:
            slot = agenda.get(time)
            if slot is None:
                agenda[time] = set(keys)
            else:
                slot.update(keys)
            return
        prefix, suffix = time[:1], time[1:]
        seen_by_key = self._seen
        for key in keys:
            seen = seen_by_key.get(key)
            if seen is None:
                seen_by_key[key] = {suffix}
                ups: Iterable[Time] = (suffix,)
            else:
                # `seen` is lub-closed, so closing it over `suffix` adds
                # exactly the joins {lub(s, suffix)}.
                ups = {lub(s, suffix) for s in seen}
                ups.add(suffix)
                seen |= ups
            for up in ups:
                at = prefix + up
                slot = agenda.get(at)
                if slot is None:
                    agenda[at] = {key}
                else:
                    slot.add(key)

    def tasks_at(self, time: Time) -> Set[Any]:
        """Pop and return the keys scheduled at exactly ``time``."""
        return self._agenda.pop(time, set())

    def pending_times(self) -> Iterable[Time]:
        return self._agenda.keys()
