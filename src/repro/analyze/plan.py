"""Pass 1 — structural analysis of a built dataflow plan.

Walks the operator DAG and scope tree of a :class:`Dataflow` (the same
``_ops_by_scope`` map :mod:`repro.differential.debug` renders) and reports
rule violations as :class:`repro.analyze.report.Finding` objects.

The walk is strictly read-only: it never touches traces, schedules, or the
work meter, so running it leaves ``total_work``/``parallel_time`` of a
subsequent execution byte-identical to an unanalyzed run.

Rule ids are ``GS-P1xx`` (plan rules); the UDF linter owns ``GS-U2xx``.
The catalog with rationale and examples lives in ``docs/analysis.md``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.analyze.report import Finding, Rule, Severity
from repro.differential.debug import _scope_ops
from repro.differential.operators.arrange import (
    ArrangeEnterOp,
    ArrangeOp,
    JoinArrangedOp,
)
from repro.differential.operators.base import Operator
from repro.differential.operators.io import CaptureOp, InputOp
from repro.differential.operators.iterate import (
    EnterOp,
    IterateOp,
    VariableOp,
    _LeaveTap,
)
from repro.differential.operators.join import JoinOp
from repro.differential.operators.linear import (
    ConcatOp,
    FilterOp,
    InspectOp,
    NegateOp,
)
from repro.differential.operators.reduce import ReduceOp

PLAN_RULES: Dict[str, Rule] = {rule.id: rule for rule in (
    Rule("GS-P101", Severity.ERROR, "scope-crossing edge",
         "A collection flows between different iterate scopes without an "
         "enter; the consumer would see timestamps of the wrong arity and "
         "the scope drivers would never flush it at the right times."),
    Rule("GS-P102", Severity.ERROR, "unguarded negate inside iterate",
         "A negate (or antijoin half) feeds the loop variable with no "
         "reduce-family guard (distinct/threshold/min/...) on the path; "
         "negative multiplicities can oscillate and the fixed point may "
         "never be reached."),
    Rule("GS-P103", Severity.WARNING, "redundant arrangement",
         "The same upstream is arranged (or the same arrangement entered "
         "into the same scope) more than once; arrangements exist to be "
         "shared — each extra one stores a full private copy of the "
         "trace."),
    Rule("GS-P104", Severity.WARNING, "dangling operator",
         "The operator's output can never reach a capture or inspect "
         "sink; it consumes work and memory every epoch for nothing."),
    Rule("GS-P105", Severity.ERROR, "scope-depth / timestamp-arity mismatch",
         "An enter skips nesting levels, a loop part sits at the wrong "
         "depth, or a sink would record timestamps of the wrong arity; "
         "the product-order timestamps could not line up."),
    Rule("GS-P106", Severity.WARNING, "join inputs keyed from different sources",
         "Both join inputs have key-preserving provenance from distinct "
         "inputs; the equi-join silently assumes the two key spaces "
         "coincide."),
    Rule("GS-P107", Severity.WARNING, "join re-indexes an arranged input",
         "A plain join reads an already-arranged stream and builds a "
         "private trace next to the shared one; join_arranged would reuse "
         "the existing index."),
)}

_ENTER_TYPES = (EnterOp, ArrangeEnterOp)

#: Reduce-family operators break negative-multiplicity feedback loops: their
#: output is recomputed from the accumulated (consolidated) input per key,
#: so sign oscillation upstream cannot leak past them.
_GUARD_TYPES = (ReduceOp,)


def _finding(rule_id: str, operator: str, message: str,
             hint: str = "") -> Finding:
    rule = PLAN_RULES[rule_id]
    return Finding(rule=rule.id, severity=rule.severity, operator=operator,
                   message=message, hint=hint)


class PlanWalk:
    """One read-only traversal context over a built dataflow."""

    def __init__(self, dataflow):
        self.dataflow = dataflow
        by_scope = _scope_ops(dataflow)
        self.ops: List[Operator] = sorted(
            (op for ops in by_scope.values() for op in ops),
            key=lambda op: op.index)
        self._labels: Dict[int, str] = {id(dataflow.root): "root"}
        for op in self.ops:
            if isinstance(op, IterateOp):
                self._labels[id(op.child_scope)] = op.name
        anonymous = 0
        for scope in by_scope:
            if id(scope) not in self._labels:
                self._labels[id(scope)] = f"scope{scope.depth}.{anonymous}"
                anonymous += 1

    def path(self, op: Operator) -> str:
        """``root/<loop>/<op.name>#<index>`` — stable operator address."""
        parts: List[str] = []
        scope = op.scope
        while scope is not None:
            parts.append(self._labels.get(id(scope), f"scope{scope.depth}"))
            scope = scope.parent
        parts.reverse()
        return "/".join(parts) + f"/{op.name}#{op.index}"


def check_plan(dataflow,
               walk: Optional[PlanWalk] = None) -> Tuple[List[Finding], int]:
    """Run every plan rule; returns (findings, operators scanned)."""
    if walk is None:
        walk = PlanWalk(dataflow)
    findings: List[Finding] = []
    findings.extend(_check_scope_edges(walk))
    findings.extend(_check_scope_shape(walk))
    findings.extend(_check_unguarded_negate(walk))
    findings.extend(_check_redundant_arrange(walk))
    findings.extend(_check_dangling(walk))
    findings.extend(_check_join_keys(walk))
    findings.extend(_check_rearranged_join(walk))
    return findings, len(walk.ops)


# -- GS-P101 / GS-P105: scope structure ------------------------------------


def _check_scope_edges(walk: PlanWalk):
    """Every DAG edge must stay in one scope or be a direct-child enter."""
    for op in walk.ops:
        is_enter = isinstance(op, _ENTER_TYPES)
        for down, _port in op.downstream:
            if down.scope is op.scope:
                if is_enter:
                    # An enter appends one timestamp coordinate; a consumer
                    # at the same depth would see times one too long.
                    yield _finding(
                        "GS-P105", walk.path(down),
                        f"enter {op.name}#{op.index} feeds "
                        f"{down.name}#{down.index} in its own scope "
                        f"(depth {down.scope.depth}); entered timestamps "
                        f"carry {down.scope.depth + 1} coordinates",
                        hint="consume the entered collection inside the "
                             "child scope it targets")
                continue
            if is_enter:
                if down.scope.parent is op.scope:
                    continue
                yield _finding(
                    "GS-P105", walk.path(down),
                    f"enter {op.name}#{op.index} (depth {op.scope.depth}) "
                    f"feeds {down.name}#{down.index} at depth "
                    f"{down.scope.depth}; an enter moves exactly one "
                    f"nesting level",
                    hint="chain one enter per level (Scope.enter and "
                         "Arrangement.enter do this for you)")
                continue
            yield _finding(
                "GS-P101", walk.path(down),
                f"{op.name}#{op.index} (depth {op.scope.depth}) feeds "
                f"{down.name}#{down.index} (depth {down.scope.depth}) "
                f"across a scope boundary without enter/leave",
                hint="bring the collection in with scope.enter(...) or "
                     "take the iterate result out through its leave "
                     "stream")


def _check_scope_shape(walk: PlanWalk):
    """Loop parts and sinks must sit at the right scope depth."""
    root = walk.dataflow.root
    for op in walk.ops:
        if isinstance(op, IterateOp):
            if op.leave_tap is None:
                yield _finding(
                    "GS-P105", walk.path(op),
                    f"iterate {op.name}#{op.index} was never finalized "
                    f"(no body wired back into its variable)",
                    hint="build loops with Collection.iterate(body)")
            if op.child_scope.parent is not op.scope:
                yield _finding(
                    "GS-P105", walk.path(op),
                    f"iterate {op.name}#{op.index} at depth "
                    f"{op.scope.depth} drives a scope at depth "
                    f"{op.child_scope.depth}; the loop scope must be its "
                    f"direct child")
        elif isinstance(op, VariableOp):
            if op.scope.depth < 2:
                yield _finding(
                    "GS-P105", walk.path(op),
                    f"loop variable {op.name}#{op.index} sits at the root "
                    f"scope; variables only make sense inside an iterate")
        elif isinstance(op, CaptureOp):
            if op.scope is not root:
                yield _finding(
                    "GS-P105", walk.path(op),
                    f"capture {op.name}#{op.index} sits at depth "
                    f"{op.scope.depth}; it would record "
                    f"{op.scope.depth}-coordinate timestamps the epoch "
                    f"driver (which probes 1-coordinate epochs) never "
                    f"exposes",
                    hint="capture the iterate's leave stream at the root "
                         "scope instead")
        elif isinstance(op, InputOp):
            if op.scope is not root:
                yield _finding(
                    "GS-P105", walk.path(op),
                    f"input {op.name}#{op.index} sits at depth "
                    f"{op.scope.depth}; Dataflow.step feeds 1-coordinate "
                    f"epochs at the root scope only")


# -- GS-P102: divergence risk ----------------------------------------------


def _is_cancelling_negate(op: NegateOp) -> bool:
    """Recognize the antijoin idiom ``A.concat(A.semijoin(K).negate())``.

    The negated stream is a (semi)join whose port-0 input also feeds the
    same concat, so every negative difference cancels against a positive
    one record-for-record — the concat output never goes negative and the
    feedback loop stays safe without a reduce guard.
    """
    source = op.inputs[0]
    if not isinstance(source, (JoinOp, JoinArrangedOp)):
        return False
    base = source.inputs[0]
    if not op.downstream:
        return False
    for down, _port in op.downstream:
        if not isinstance(down, ConcatOp):
            return False
        if not any(other is base for other in down.inputs if other is not op):
            return False
    return True


def _check_unguarded_negate(walk: PlanWalk):
    """A negate inside a loop must not reach the variable unguarded."""
    for op in walk.ops:
        if not isinstance(op, NegateOp) or op.scope.depth < 2:
            continue
        if _is_cancelling_negate(op):
            continue
        # Walk downstream; reduce-family operators consolidate per key and
        # stop sign oscillation, so the search does not continue past them.
        seen = {op.index}
        stack: List[Operator] = [op]
        variable: Optional[Operator] = None
        while stack and variable is None:
            current = stack.pop()
            for down, _port in current.downstream:
                if down.index in seen:
                    continue
                seen.add(down.index)
                if isinstance(down, VariableOp) and down.scope is op.scope:
                    variable = down
                    break
                if isinstance(down, _GUARD_TYPES):
                    continue
                stack.append(down)
        if variable is not None:
            yield _finding(
                "GS-P102", walk.path(op),
                f"negate {op.name}#{op.index} reaches loop variable "
                f"{variable.name}#{variable.index} with no reduce-family "
                f"guard on the feedback path; negative multiplicities can "
                f"oscillate across iterations and the loop may never "
                f"converge",
                hint="pass the feedback through distinct()/"
                     "min_by_key() (any reduce), or use the antijoin "
                     "idiom A.concat(A.semijoin(K).negate()) whose "
                     "negatives cancel exactly")


# -- GS-P103: arrangement sharing ------------------------------------------


def _check_redundant_arrange(walk: PlanWalk):
    groups: Dict[Tuple[int, ...], List[Operator]] = {}
    for op in walk.ops:
        if isinstance(op, ArrangeEnterOp):
            # One enter per (arrangement, target scope); the target is
            # where its consumers live.
            targets = sorted({id(down.scope) for down, _ in op.downstream})
            groups.setdefault(
                ("enter", id(op.inputs[0]), *targets), []).append(op)
        elif isinstance(op, ArrangeOp):
            source = op.inputs[0]
            if isinstance(source, (ArrangeOp, ArrangeEnterOp)):
                yield _finding(
                    "GS-P103", walk.path(op),
                    f"arrange {op.name}#{op.index} re-indexes the already "
                    f"arranged stream {source.name}#{source.index}",
                    hint="reuse the existing Arrangement handle instead "
                         "of arranging its output again")
            groups.setdefault(
                ("arrange", id(source), id(op.scope)), []).append(op)
    for key, ops in groups.items():
        if len(ops) < 2:
            continue
        first = ops[0]
        for extra in ops[1:]:
            what = ("entered into the same scope"
                    if key[0] == "enter" else "arranged in the same scope")
            yield _finding(
                "GS-P103", walk.path(extra),
                f"{extra.name}#{extra.index} duplicates "
                f"{first.name}#{first.index}: the same upstream is "
                f"{what} more than once",
                hint="arrange once and share the Arrangement handle "
                     "across consumers (PR 2's shared-arrangement rule)")


# -- GS-P104: dead operators -----------------------------------------------


def _check_dangling(walk: PlanWalk):
    reaches_sink = set()
    stack = [op for op in walk.ops
             if isinstance(op, (CaptureOp, InspectOp))]
    for sink in stack:
        reaches_sink.add(sink.index)
    while stack:
        current = stack.pop()
        upstream = list(current.inputs)
        if isinstance(current, IterateOp) and current.leave_tap is not None:
            # The tap has no downstream edge — its buffered diffs flow out
            # through IterateOp.flush — so reachability needs this
            # virtual leave edge.
            upstream.append(current.leave_tap)
        for up in upstream:
            if up.index not in reaches_sink:
                reaches_sink.add(up.index)
                stack.append(up)
    for op in walk.ops:
        if op.index in reaches_sink:
            continue
        if isinstance(op, InputOp):
            message = (f"input {op.name}#{op.index} feeds no path to a "
                       f"capture or inspect sink")
            hint = "drop the input or wire it into the computation"
        else:
            message = (f"{op.name}#{op.index} has no path to a capture or "
                       f"inspect sink; it does metered work every epoch "
                       f"that nothing observes")
            hint = ("capture the collection, or delete the dead operator "
                    "chain")
        yield _finding("GS-P104", walk.path(op), message, hint=hint)


# -- GS-P106 / GS-P107: join hygiene ---------------------------------------


def _key_origin(op: Operator,
                memo: Dict[int, Optional[Tuple[str, str]]]):
    """Best-effort provenance of an operator's record keys.

    Returns ``("input", name)`` when the keys demonstrably come from one
    named input through key-preserving operators, else ``None`` (unknown —
    maps and joins may rekey arbitrarily, loop variables mix provenance).
    """
    if op.index in memo:
        return memo[op.index]
    memo[op.index] = None  # cycle guard (variable feedback edges)
    origin: Optional[Tuple[str, str]] = None
    if isinstance(op, InputOp):
        origin = ("input", op.name)
    elif isinstance(op, (FilterOp, NegateOp, InspectOp, ReduceOp, CaptureOp,
                         EnterOp, ArrangeEnterOp, ArrangeOp, _LeaveTap)):
        origin = _key_origin(op.inputs[0], memo)
    elif isinstance(op, ConcatOp):
        origins = {_key_origin(up, memo) for up in op.inputs}
        if len(origins) == 1:
            origin = origins.pop()
    # MapOp/FlatMapOp/JoinOp/JoinArrangedOp may rekey; VariableOp/IterateOp
    # mix loop-carried state: all stay unknown.
    memo[op.index] = origin
    return origin


def _check_join_keys(walk: PlanWalk):
    memo: Dict[int, Optional[Tuple[str, str]]] = {}
    for op in walk.ops:
        if not isinstance(op, (JoinOp, JoinArrangedOp)):
            continue
        left = _key_origin(op.inputs[0], memo)
        right = _key_origin(op.inputs[1], memo)
        if left is not None and right is not None and left != right:
            yield _finding(
                "GS-P106", walk.path(op),
                f"join {op.name}#{op.index} pairs records keyed from "
                f"{left[1]!r} against records keyed from {right[1]!r}; "
                f"the equi-join assumes both key spaces coincide",
                hint="rekey one side explicitly (map) if the key spaces "
                     "really do line up, or join within one input")


def _check_rearranged_join(walk: PlanWalk):
    for op in walk.ops:
        if not isinstance(op, JoinOp):
            continue
        for port, up in enumerate(op.inputs):
            if isinstance(up, (ArrangeOp, ArrangeEnterOp)):
                yield _finding(
                    "GS-P107", walk.path(op),
                    f"join {op.name}#{op.index} reads the arranged stream "
                    f"{up.name}#{up.index} on port {port} and builds a "
                    f"private trace next to the shared one",
                    hint="use join_arranged(arrangement) to reuse the "
                         "shared index")
