"""Greedy failure shrinking: minimize a collection that violates a check.

Two passes, both greedy and bounded by a check budget:

1. **Drop views** — repeatedly try removing whole views (difference sets)
   while the check still fails. Removing view *i* folds the remaining
   stream (later views' full edge sets change); that is fine — the goal
   is *a* minimal failing workload, not a sub-slice of the original.
2. **Drop diffs** — try removing individual edge entries from each
   surviving view's difference set.

The result is typically a 1-view, few-edge collection that reproduces
the violation, which the replay module persists as a repro file.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.core.view_collection import (
    MaterializedCollection,
    collection_from_diffs,
)
from repro.verify.invariants import Mismatch

Check = Callable[[MaterializedCollection], Optional[Mismatch]]


@dataclass
class ShrinkResult:
    """The minimal failing collection the budgeted search found."""

    collection: MaterializedCollection
    mismatch: Mismatch
    checks_run: int
    views_dropped: int
    diffs_dropped: int


def _rebuild(name: str, diffs: List[dict],
             names: List[str]) -> MaterializedCollection:
    return collection_from_diffs(name, diffs, view_names=names,
                                 source="shrunk")


def _valid_stream(diffs: List[dict]) -> bool:
    """No edge may accumulate a negative multiplicity at any view.

    Dropping a ``+1`` entry whose ``-1`` survives in a later view would
    produce a stream no materializer can emit; such candidates are
    skipped rather than handed to the engine.
    """
    acc: dict = {}
    for diff in diffs:
        for edge, mult in diff.items():
            new = acc.get(edge, 0) + mult
            if new < 0:
                return False
            acc[edge] = new
    return True


#: The most times :func:`shrink` runs the check, the initial run included.
MAX_CHECKS = 200


def shrink(collection: MaterializedCollection,
           check: Check) -> ShrinkResult:
    """Minimize ``collection`` while ``check`` keeps failing.

    ``check`` must fail on the input collection (the caller observed the
    mismatch); raises ``ValueError`` otherwise so a flaky check is
    surfaced instead of silently "shrunk" to nothing.
    """
    mismatch = check(collection)
    if mismatch is None:
        raise ValueError("check does not fail on the initial collection")
    checks_run = 1
    diffs = [dict(diff) for diff in collection.diffs]
    names = list(collection.view_names)
    views_dropped = 0
    diffs_dropped = 0
    shrunk_name = collection.name + "-shrunk"

    # Pass 1: whole views, repeated until a fixed point.
    progress = True
    while progress and len(diffs) > 1 and checks_run < MAX_CHECKS:
        progress = False
        index = 0
        while index < len(diffs) and len(diffs) > 1:
            if checks_run >= MAX_CHECKS:
                break
            kept = diffs[:index] + diffs[index + 1:]
            if not _valid_stream(kept):
                index += 1
                continue
            candidate = _rebuild(shrunk_name, kept,
                                 names[:index] + names[index + 1:])
            checks_run += 1
            failed = check(candidate)
            if failed is not None:
                del diffs[index]
                del names[index]
                mismatch = failed
                views_dropped += 1
                progress = True
            else:
                index += 1

    # Pass 2: individual difference entries.
    progress = True
    while progress and checks_run < MAX_CHECKS:
        progress = False
        for view_index in range(len(diffs)):
            for edge in list(diffs[view_index]):
                if checks_run >= MAX_CHECKS:
                    break
                trimmed = [dict(diff) for diff in diffs]
                del trimmed[view_index][edge]
                if not _valid_stream(trimmed):
                    continue
                candidate = _rebuild(shrunk_name, trimmed, names)
                checks_run += 1
                failed = check(candidate)
                if failed is not None:
                    diffs = trimmed
                    mismatch = failed
                    diffs_dropped += 1
                    progress = True

    return ShrinkResult(
        collection=_rebuild(shrunk_name, diffs, names),
        mismatch=mismatch,
        checks_run=checks_run,
        views_dropped=views_dropped,
        diffs_dropped=diffs_dropped,
    )
