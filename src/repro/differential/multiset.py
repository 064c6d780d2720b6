"""Multisets with signed multiplicities — the values of difference streams.

Differential dataflow streams are multisets of records; a *difference* is a
multiset in which records may carry negative multiplicities (deletions).
We represent them as plain ``dict[record, int]`` for speed and provide the
handful of algebraic helpers the operators need. All helpers drop
zero-multiplicity entries ("consolidation"), which is what guarantees that a
converged computation produces empty differences.
"""

from __future__ import annotations

from typing import Any, Dict

Diff = Dict[Any, int]


def consolidate(diff: Diff) -> Diff:
    """Drop zero-multiplicity entries (in place) and return the dict."""
    dead = [rec for rec, mult in diff.items() if mult == 0]
    for rec in dead:
        del diff[rec]
    return diff


def add_into(target: Diff, source: Diff, factor: int = 1) -> Diff:
    """``target += factor * source`` with consolidation of touched keys."""
    for rec, mult in source.items():
        new = target.get(rec, 0) + factor * mult
        if new == 0:
            target.pop(rec, None)
        else:
            target[rec] = new
    return target


def negate(diff: Diff) -> Diff:
    """Return ``-diff`` as a new dict."""
    return {rec: -mult for rec, mult in diff.items()}


def size(diff: Diff) -> int:
    """Total absolute multiplicity — the paper's "number of differences"."""
    return sum(abs(mult) for mult in diff.values())
