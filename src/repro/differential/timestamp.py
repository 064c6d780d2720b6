"""Partially ordered timestamps for differential computation.

Timestamps are tuples of non-negative ints under the *product* partial
order: ``s <= t`` iff every component of ``s`` is <= the matching component
of ``t``. The first component is the epoch (the view index when running a
view collection); each ``iterate`` scope appends one loop-counter component,
so e.g. a doubly-iterative SCC runs with 3-dimensional times
``(view, outer_iter, inner_iter)`` exactly as in the paper's Table 1.

Lexicographic order on the tuples is a linear extension of the product order
and is the order in which the engine processes work.
"""

from __future__ import annotations

from typing import Iterable, Tuple

Time = Tuple[int, ...]


def leq(s: Time, t: Time) -> bool:
    """Product partial order: ``s <= t`` componentwise.

    Times from different scope depths are never comparable; the engine only
    compares times within one scope, where arities match.

    Arities 1-3 (root, one loop, nested loops) are unrolled: this is the
    innermost comparison of the engine and the generic zip/genexpr form
    dominated profiles.
    """
    n = len(s)
    if n != len(t):
        return False
    if n == 2:
        return s[0] <= t[0] and s[1] <= t[1]
    if n == 1:
        return s[0] <= t[0]
    if n == 3:
        return s[0] <= t[0] and s[1] <= t[1] and s[2] <= t[2]
    return all(a <= b for a, b in zip(s, t))


def lt(s: Time, t: Time) -> bool:
    """Strict product order."""
    return s != t and leq(s, t)


def lub(s: Time, t: Time) -> Time:
    """Least upper bound (join) under the product order."""
    n = len(s)
    if n != len(t):
        raise ValueError(f"cannot join times of different arity: {s} vs {t}")
    if n == 2:
        a, b = s
        c, d = t
        return (a if a >= c else c, b if b >= d else d)
    if n == 1:
        return s if s[0] >= t[0] else t
    if n == 3:
        a, b, e = s
        c, d, f = t
        return (a if a >= c else c, b if b >= d else d, e if e >= f else f)
    return tuple(max(a, b) for a, b in zip(s, t))


def lub_closure(times: Iterable[Time]) -> set:
    """Close a finite set of times under pairwise joins.

    Differential operators may need to produce output corrections at any
    join of input-difference times, even when no input difference exists at
    exactly that time (see DESIGN.md §5). This helper computes the full
    closure; the engine's keyed operators build it incrementally instead,
    but tests validate against this reference.
    """
    closed = set(times)
    frontier = list(closed)
    while frontier:
        t = frontier.pop()
        for s in list(closed):
            j = lub(s, t)
            if j not in closed:
                closed.add(j)
                frontier.append(j)
    return closed


def extend(t: Time) -> Time:
    """Append a zero loop coordinate (``enter`` in DD terminology)."""
    return t + (0,)
