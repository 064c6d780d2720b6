"""The fluent Collection API — the differential dataflow surface.

A :class:`Collection` wraps an operator output inside a scope and offers the
operator vocabulary of Differential Dataflow. Keyed operators (``join``,
``reduce`` and friends, ``iterate``) require records to be ``(key, value)``
2-tuples.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Dict, Iterable, Optional

from repro.differential.operators.base import Operator
from repro.differential.operators.io import CaptureOp
from repro.differential.operators.iterate import IterateOp
from repro.differential.operators.join import JoinOp
from repro.differential.operators.linear import (
    ConcatOp,
    FilterOp,
    FlatMapOp,
    InspectOp,
    MapOp,
    NegateOp,
)
from repro.differential.operators.reduce import ReduceOp
from repro.errors import DataflowError

if TYPE_CHECKING:  # pragma: no cover
    from repro.differential.dataflow import Dataflow, Scope


class Collection:
    """A handle on one dataflow stream of timestamped differences."""

    def __init__(self, dataflow: "Dataflow", op: Operator, scope: "Scope"):
        self.dataflow = dataflow
        self.op = op
        self.scope = scope

    # -- linear operators ----------------------------------------------------

    def map(self, f: Callable[[Any], Any], name: str = "map") -> "Collection":
        """Transform every record with ``f``."""
        return self._wrap(MapOp(self.dataflow, self.scope, name, self.op, f))

    def flat_map(self, f: Callable[[Any], Iterable[Any]],
                 name: str = "flat_map") -> "Collection":
        """Replace every record by zero or more records."""
        return self._wrap(
            FlatMapOp(self.dataflow, self.scope, name, self.op, f))

    def filter(self, predicate: Callable[[Any], bool],
               name: str = "filter") -> "Collection":
        """Keep records for which ``predicate`` holds."""
        return self._wrap(
            FilterOp(self.dataflow, self.scope, name, self.op, predicate))

    def concat(self, *others: "Collection") -> "Collection":
        """Multiset union with other collections of the same scope."""
        for other in others:
            self._check_same_scope(other)
        ops = [self.op] + [other.op for other in others]
        return self._wrap(ConcatOp(self.dataflow, self.scope, "concat", ops))

    def negate(self) -> "Collection":
        """Flip all multiplicities (for multiset subtraction)."""
        return self._wrap(NegateOp(self.dataflow, self.scope, "negate",
                                   self.op))

    def inspect(self, callback, name: str = "inspect") -> "Collection":
        """Tap the difference stream (debugging/testing aid)."""
        return self._wrap(
            InspectOp(self.dataflow, self.scope, name, self.op, callback))

    # -- keyed operators -----------------------------------------------------

    def join(self, other: "Collection",
             f: Optional[Callable[[Any, Any, Any], Any]] = None,
             name: str = "join") -> "Collection":
        """Equi-join on the key; ``f(key, va, vb)`` builds result records.

        Defaults to producing ``(key, (va, vb))``.
        """
        self._check_same_scope(other)
        if f is None:
            f = lambda k, va, vb: (k, (va, vb))  # noqa: E731
        return self._wrap(JoinOp(self.dataflow, self.scope, name,
                                 self.op, other.op, f))

    def reduce(self, logic: Callable[[Any, Dict[Any, int]], Iterable[Any]],
               name: str = "reduce") -> "Collection":
        """Group by key and apply ``logic(key, {value: mult})``.

        ``logic`` returns the group's output values; the result carries
        ``(key, out_value)`` records.
        """
        return self._wrap(
            ReduceOp(self.dataflow, self.scope, name, self.op, logic))

    def min_by_key(self, name: str = "min") -> "Collection":
        """Keep ``(key, min(values))`` per key."""
        return self.reduce(lambda key, vals: [min(vals)], name=name)

    def max_by_key(self, name: str = "max") -> "Collection":
        """Keep ``(key, max(values))`` per key."""
        return self.reduce(lambda key, vals: [max(vals)], name=name)

    def count_by_key(self, name: str = "count") -> "Collection":
        """Produce ``(key, total multiplicity)`` per key."""
        return self.reduce(
            lambda key, vals: [sum(vals.values())], name=name)

    def sum_by_key(self, name: str = "sum") -> "Collection":
        """Produce ``(key, Σ value·multiplicity)`` per key."""
        return self.reduce(
            lambda key, vals: [sum(v * m for v, m in vals.items())],
            name=name)

    def distinct(self, name: str = "distinct") -> "Collection":
        """Collapse multiplicities to one per distinct record."""
        keyed = self.map(lambda rec: (rec, None), name=name + ".key")
        reduced = keyed.reduce(lambda key, vals: [None], name=name)
        return reduced.map(lambda rec: rec[0], name=name + ".unkey")

    def semijoin(self, keys: "Collection", name: str = "semijoin") -> "Collection":
        """Keep ``(key, value)`` records whose key appears in ``keys``.

        ``keys`` carries bare key records (any multiplicities; they are
        collapsed with ``distinct`` first).
        """
        marker = keys.map(lambda k: (k, None), name=name + ".mark").distinct(
            name=name + ".dedup").map(lambda rec: rec, name=name + ".id")
        return self.join(marker, lambda k, v, _marker: (k, v), name=name)

    def antijoin(self, keys: "Collection", name: str = "antijoin") -> "Collection":
        """Keep ``(key, value)`` records whose key does NOT appear in ``keys``."""
        present = self.semijoin(keys, name=name + ".present")
        return self.concat(present.negate())

    # -- arrangements ----------------------------------------------------------

    def arrange(self, name: str = "arrange") -> "Arrangement":
        """Materialize this keyed collection's trace for shared reuse.

        Several joins can read one arrangement
        (``other.join_arranged(arr)``) without each building a private
        index — Differential Dataflow's ``arrange_by_key``.
        """
        from repro.differential.operators.arrange import ArrangeOp

        op = ArrangeOp(self.dataflow, self.scope, name, self.op)
        return Arrangement(self.dataflow, op, self.scope)

    def arrange_by_key(self, name: str = "arrange") -> "Arrangement":
        """Differential Dataflow's canonical name for :meth:`arrange`."""
        return self.arrange(name)

    def join_arranged(self, arrangement: "Arrangement",
                      f: Optional[Callable[[Any, Any, Any], Any]] = None,
                      name: str = "join_arranged") -> "Collection":
        """Equi-join this collection against a shared arrangement.

        For a self-join, join the *pre-arrangement* collection against its
        own arrangement (``coll.join_arranged(coll.arrange())``): the
        arrangement stores each difference before forwarding it, so
        joining the arrangement's own output stream back against it would
        pair a difference with itself on both ports.
        """
        from repro.differential.operators.arrange import JoinArrangedOp

        if arrangement.scope is not self.scope:
            raise DataflowError(
                "arrangement and collection are in different scopes")
        if self.op is arrangement.op:
            raise DataflowError(
                f"cannot join an arrangement's own output stream against "
                f"itself ({self.op.name}); self-join the collection that "
                f"was arranged instead")
        if f is None:
            f = lambda k, va, vb: (k, (va, vb))  # noqa: E731
        op = JoinArrangedOp(self.dataflow, self.scope, name, self.op,
                            arrangement.op, f)
        return self._wrap(op)

    # -- iteration -----------------------------------------------------------

    def iterate(self, body: Callable[["Collection", "Scope"], "Collection"],
                max_iters: Optional[int] = None,
                name: str = "iterate") -> "Collection":
        """Compute the fixed point of ``body`` seeded with this collection.

        ``body(inner, scope)`` receives the loop variable and the child
        scope (use ``scope.enter(col)`` to bring outer collections in) and
        returns the next value of the variable. Iteration stops when the
        differences are empty — i.e. at the fixed point — or after
        ``max_iters`` iterations when given (useful for computations like
        PageRank that are run for a fixed number of rounds).
        """
        it_op = IterateOp(self.dataflow, self.scope, name, self.op, max_iters)
        inner = Collection(self.dataflow, it_op.variable, it_op.child_scope)
        result = body(inner, it_op.child_scope)
        if not isinstance(result, Collection):
            raise DataflowError(
                f"iterate body must return a Collection, got {type(result)!r}")
        if result.scope is not it_op.child_scope:
            raise DataflowError(
                "iterate body must return a collection of the loop's scope; "
                "did you forget scope.enter(...)?")
        it_op.finalize(result.op)
        self.dataflow.move_to_scope_end(it_op)
        return self._wrap(it_op)

    # -- endpoints ------------------------------------------------------------

    def capture(self, name: str = "capture") -> CaptureOp:
        """Attach a sink recording this collection's difference stream."""
        return CaptureOp(self.dataflow, self.scope, name, self.op)

    # -- internals -------------------------------------------------------------

    def _wrap(self, op: Operator) -> "Collection":
        return Collection(self.dataflow, op, self.scope)

    def _check_same_scope(self, other: "Collection") -> None:
        if other.scope is not self.scope:
            raise DataflowError(
                f"collections are in different scopes: {self.op.name} is at "
                f"scope depth {self.scope.depth} but {other.op.name} is at "
                f"scope depth {other.scope.depth}; bring the outer "
                f"collection in with scope.enter() (or leave() the inner "
                f"one) before combining them")


class Arrangement:
    """A shared, indexed trace of a keyed collection (see
    :meth:`Collection.arrange`)."""

    def __init__(self, dataflow: "Dataflow", op, scope: "Scope"):
        self.dataflow = dataflow
        self.op = op
        self.scope = scope

    def enter(self, scope: "Scope") -> "Arrangement":
        """Bring this arrangement into a descendant (iterate) scope.

        The stored trace is *shared*, not copied — this is the point of
        arrangements: an edges relation arranged once at the root can feed
        joins inside every loop of the dataflow. Only the difference
        stream is re-timestamped (a zero loop coordinate per level, as
        with ``scope.enter``); joins pad the trace's shorter stored times
        on the fly.
        """
        from repro.differential.operators.arrange import ArrangeEnterOp

        path = []
        cursor: "Scope | None" = scope
        while cursor is not None and cursor is not self.scope:
            path.append(cursor)
            cursor = cursor.parent
        if cursor is None:
            raise DataflowError(
                "Arrangement.enter() requires a descendant scope")
        current = self
        for target in reversed(path):
            op = ArrangeEnterOp(self.dataflow, current.scope,
                                current.op.name + ".enter", current.op)
            current = Arrangement(self.dataflow, op, target)
        return current

    def semijoin(self, keys: Collection, name: str = "semijoin") -> Collection:
        """Arranged counterpart of :meth:`Collection.semijoin`.

        Keeps the arranged relation's records whose key appears in
        ``keys``; the (usually small) key set streams against the shared
        trace, so the big relation is never re-indexed. Work accounting is
        identical to the unarranged form — the join's cost is symmetric in
        which side streams.
        """
        marker = keys.map(lambda k: (k, None), name=name + ".mark").distinct(
            name=name + ".dedup").map(lambda rec: rec, name=name + ".id")
        return marker.join_arranged(
            self, lambda k, _marker, v: (k, v), name=name)
