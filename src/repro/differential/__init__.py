"""A from-scratch differential-computation engine.

This package reimplements the semantics of Differential Dataflow
(McSherry et al., CIDR 2013) in Python: collections evolve as multisets of
timestamped differences under a product partial order, operators maintain
their outputs incrementally by recomputing only where inputs changed, and
iterative scopes detect fixed points automatically because a converged
computation produces empty differences.

Quick taste::

    from repro.differential import Dataflow

    df = Dataflow()
    edges = df.new_input("edges")     # (src, dst) pairs
    roots = df.new_input("roots")     # (vertex, 0)

    def body(inner, scope):
        e = scope.enter(edges)
        r = scope.enter(roots)
        step = inner.join(e, lambda src, dist, dst: (dst, dist + 1))
        return step.concat(r).min_by_key()

    dists = roots.iterate(body)
    out = df.capture(dists, "dists")

    df.step({"edges": {(0, 1): 1, (1, 2): 1}, "roots": {(0, 0): 1}})
    assert out.value_at_epoch(0) == {(0, 0): 1, (1, 1): 1, (2, 2): 1}
    # Feeding only *differences* shares the previous epoch's work:
    df.step({"edges": {(2, 3): 1}})
    assert out.diff_at((1,)) == {(3, 3): 1}
"""

from repro.differential.collection import Arrangement, Collection
from repro.differential.dataflow import Dataflow, Scope
from repro.differential.multiset import (
    Diff,
    add_into,
    consolidate,
    size,
)
from repro.differential.operators.io import CaptureOp
from repro.differential.timestamp import Time, leq, lt, lub, lub_closure

__all__ = [
    "Arrangement",
    "Collection",
    "Dataflow",
    "Scope",
    "CaptureOp",
    "Diff",
    "Time",
    "add_into",
    "consolidate",
    "size",
    "leq",
    "lt",
    "lub",
    "lub_closure",
]
