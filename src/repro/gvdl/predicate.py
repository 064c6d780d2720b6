"""Compile GVDL predicates into Python closures.

The edge-predicate evaluator receives ``(edge_props, src_props, dst_props)``
dicts and returns a bool; the node-predicate evaluator (for aggregate-view
group-by predicates) receives a single ``node_props`` dict. Compilation
validates property references against the graph's schemas so typos surface
at view-definition time, mirroring Graphsurge's upfront query checking.
"""

from __future__ import annotations

import operator
from itertools import repeat
from typing import Any, Callable, Dict, Mapping, Optional, Sequence, Set, Tuple

import numpy as np

from repro.errors import GvdlTypeError, UnknownPropertyError
from repro.gvdl.ast import (
    And,
    BoolLiteral,
    Comparison,
    Literal,
    Not,
    Or,
    Predicate,
    PropRef,
)
from repro.graph.schema import Schema

EdgeEvaluator = Callable[[Dict[str, Any], Dict[str, Any], Dict[str, Any]], bool]
NodeEvaluator = Callable[[Dict[str, Any]], bool]

_OPS = {
    "=": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


def predicate_properties(predicate: Predicate) -> Set[Tuple[str, str]]:
    """All ``(target, property)`` references used by a predicate."""
    refs: Set[Tuple[str, str]] = set()
    _walk_refs(predicate, refs)
    return refs


def _walk_refs(predicate: Predicate, refs: Set[Tuple[str, str]]) -> None:
    if isinstance(predicate, Comparison):
        for side in (predicate.left, predicate.right):
            if isinstance(side, PropRef):
                refs.add((side.target, side.name))
    elif isinstance(predicate, Not):
        _walk_refs(predicate.operand, refs)
    elif isinstance(predicate, (And, Or)):
        for operand in predicate.operands:
            _walk_refs(operand, refs)


def validate_refs(predicate: Predicate,
                  edge_schema: Optional[Schema],
                  node_schema: Optional[Schema],
                  node_context: bool = False) -> None:
    """Check every property reference against the declared schemas."""
    for target, name in predicate_properties(predicate):
        if node_context:
            if target != "edge":
                raise GvdlTypeError(
                    f"{target}.{name}: src/dst references are not allowed "
                    f"in node predicates")
            if node_schema is not None and len(node_schema) and \
                    name not in node_schema:
                raise UnknownPropertyError(f"unknown node property {name!r}")
        elif target == "edge":
            if edge_schema is not None and len(edge_schema) and \
                    name not in edge_schema:
                raise UnknownPropertyError(f"unknown edge property {name!r}")
        else:
            if node_schema is not None and len(node_schema) and \
                    name not in node_schema:
                raise UnknownPropertyError(
                    f"unknown node property {target}.{name}")


def compile_predicate(predicate: Predicate,
                      edge_schema: Optional[Schema] = None,
                      node_schema: Optional[Schema] = None) -> EdgeEvaluator:
    """Compile an edge predicate to ``f(edge_props, src_props, dst_props)``."""
    validate_refs(predicate, edge_schema, node_schema, node_context=False)
    return _compile(predicate, node_context=False)


def compile_node_predicate(predicate: Predicate,
                           node_schema: Optional[Schema] = None) -> NodeEvaluator:
    """Compile a node predicate to ``f(node_props)``."""
    validate_refs(predicate, None, node_schema, node_context=True)
    inner = _compile(predicate, node_context=True)

    def evaluate(node_props: Dict[str, Any]) -> bool:
        return inner(node_props, node_props, node_props)

    return evaluate


def _compile(predicate: Predicate, node_context: bool) -> EdgeEvaluator:
    if isinstance(predicate, BoolLiteral):
        value = predicate.value
        return lambda e, s, d: value
    if isinstance(predicate, Not):
        inner = _compile(predicate.operand, node_context)
        return lambda e, s, d: not inner(e, s, d)
    if isinstance(predicate, And):
        parts = [_compile(op, node_context) for op in predicate.operands]
        return lambda e, s, d: all(part(e, s, d) for part in parts)
    if isinstance(predicate, Or):
        parts = [_compile(op, node_context) for op in predicate.operands]
        return lambda e, s, d: any(part(e, s, d) for part in parts)
    if isinstance(predicate, Comparison):
        left = _compile_operand(predicate.left)
        right = _compile_operand(predicate.right)
        op = _OPS[predicate.op]

        def compare(e, s, d):
            lv = left(e, s, d)
            rv = right(e, s, d)
            try:
                return op(lv, rv)
            except TypeError:
                raise GvdlTypeError(
                    f"cannot compare {lv!r} {predicate.op} {rv!r}") from None

        return compare
    raise GvdlTypeError(f"unknown predicate node {predicate!r}")


def _compile_operand(side):
    if isinstance(side, Literal):
        value = side.value
        return lambda e, s, d: value
    if isinstance(side, PropRef):
        name = side.name
        if side.target == "src":
            return lambda e, s, d: _lookup(s, name, "src")
        if side.target == "dst":
            return lambda e, s, d: _lookup(d, name, "dst")
        return lambda e, s, d: _lookup(e, name, "edge")
    raise GvdlTypeError(f"unknown operand {side!r}")


def evaluate_columns(predicates: Sequence[Predicate],
                     columns: Mapping[Tuple[str, str], Sequence[Any]],
                     rows: int) -> np.ndarray:
    """Evaluate edge predicates over property columns: a ``rows`` x
    ``len(predicates)`` boolean matrix.

    ``columns[(target, name)]`` holds that property's value on each of
    the ``rows`` records. Each distinct :class:`Comparison` (the AST is
    frozen and hashable, so equal nodes in different predicates are one
    atom) is evaluated once over its columns with the same Python
    operator the row closure applies; the connectives combine the atom
    vectors. Unlike the row closures this does not short-circuit, so it
    lets the operator's ``TypeError`` escape unwrapped: a caller that
    sees one must let row-at-a-time evaluation decide, which either
    never reaches the bad cell or raises the wrapped error for it.
    """
    atoms: Dict[Comparison, np.ndarray] = {}

    def operand(side):
        if isinstance(side, Literal):
            return repeat(side.value, rows)
        if isinstance(side, PropRef):
            return columns[side.target, side.name]
        raise GvdlTypeError(f"unknown operand {side!r}")

    def vector(node):
        if isinstance(node, BoolLiteral):
            return np.full(rows, node.value, dtype=bool)
        if isinstance(node, Not):
            return ~vector(node.operand)
        if isinstance(node, And):
            return np.logical_and.reduce(
                [vector(part) for part in node.operands])
        if isinstance(node, Or):
            return np.logical_or.reduce(
                [vector(part) for part in node.operands])
        if isinstance(node, Comparison):
            atom = atoms.get(node)
            if atom is None:
                atom = atoms[node] = np.fromiter(
                    map(_OPS[node.op], operand(node.left),
                        operand(node.right)), dtype=bool, count=rows)
            return atom
        raise GvdlTypeError(f"unknown predicate node {node!r}")

    matrix = np.empty((rows, len(predicates)), dtype=bool)
    for view, predicate in enumerate(predicates):
        matrix[:, view] = vector(predicate)
    return matrix


def _lookup(props: Dict[str, Any], name: str, target: str) -> Any:
    try:
        return props[name]
    except KeyError:
        raise UnknownPropertyError(
            f"{target} record has no property {name!r}") from None
