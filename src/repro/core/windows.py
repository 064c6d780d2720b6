"""Window-based view-collection builders.

The applications motivating Graphsurge (paper §1, Example 1) analyze
time-windows of a property: cumulative history prefixes, sliding windows,
expanding/shrinking windows. This module turns those recipes into
:class:`ViewCollectionDefinition` objects over any integer property, so
callers don't hand-assemble predicates:

    from repro.core.windows import cumulative_windows
    definition = cumulative_windows("history", "Calls", "year",
                                    bounds=range(2010, 2020))
    collection = definition.materialize(graph)

All builders window an edge property (e.g. SO's ``ts``).
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

from repro.core.view_collection import ViewCollectionDefinition
from repro.errors import ConfigError
from repro.gvdl.ast import And, Comparison, Literal, Predicate, PropRef


def _bound_predicate(prop: str, lo: Optional[int],
                     hi: Optional[int]) -> Predicate:
    """`lo <= prop < hi` on the edge."""
    ref = PropRef("edge", prop)
    terms: List[Comparison] = []
    if lo is not None:
        terms.append(Comparison(ref, ">=", Literal(lo)))
    if hi is not None:
        terms.append(Comparison(ref, "<", Literal(hi)))
    if not terms:
        raise ConfigError("window needs at least one bound")
    if len(terms) == 1:
        return terms[0]
    return And(tuple(terms))


def cumulative_windows(name: str, source: str, prop: str,
                       bounds: Iterable[int]) -> ViewCollectionDefinition:
    """One view per bound: everything with ``prop < bound``.

    Produces an inclusion chain — each view a superset of its predecessor
    (addition-only differences): the ideal case for differential
    execution.
    """
    views = []
    for bound in bounds:
        views.append((f"lt-{bound}",
                      _bound_predicate(prop, None, bound)))
    if not views:
        raise ConfigError("cumulative_windows needs at least one bound")
    return ViewCollectionDefinition(name, source, tuple(views))


def sliding_windows(name: str, source: str, prop: str, start: int,
                    width: int, slide: int,
                    count: int) -> ViewCollectionDefinition:
    """``count`` windows ``[start + i·slide, start + i·slide + width)``.

    ``slide < width`` gives overlapping views (partial sharing);
    ``slide == width`` gives tumbling, fully disjoint views (the paper's
    C_no shape); ``slide > width`` leaves gaps.
    """
    if width <= 0 or slide <= 0 or count <= 0:
        raise ConfigError(
            "sliding_windows: width, slide, and count must be positive")
    views = []
    for index in range(count):
        lo = start + index * slide
        hi = lo + width
        views.append((f"win-{lo}-{hi}",
                      _bound_predicate(prop, lo, hi)))
    return ViewCollectionDefinition(name, source, tuple(views))


def expand_shrink_slide(name: str, source: str, prop: str,
                        phases: Sequence[Tuple[int, int]]
                        ) -> ViewCollectionDefinition:
    """A collection from an explicit list of ``(lo, hi)`` windows.

    The paper's C_ex-sh-sl (§7.3) is the canonical instance: expand the
    window through additions, shrink it through deletions, then slide it.
    """
    phases = list(phases)
    if not phases:
        raise ConfigError("expand_shrink_slide needs at least one phase")
    views = []
    for lo, hi in phases:
        if hi <= lo:
            raise ConfigError(
                f"expand_shrink_slide: empty window [{lo}, {hi})")
        views.append((f"{lo}-{hi}", _bound_predicate(prop, lo, hi)))
    return ViewCollectionDefinition(name, source, tuple(views))
