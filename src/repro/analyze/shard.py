"""Pass 3 — shard-safety analysis for the process backend.

The process backend (``backend="process"``, :mod:`repro.timely.cluster`)
forks W workers that inherit the dataflow graph — including every user
closure — and then runs keyed kernels (``reduce`` logic, ``join`` result
builders) on the key's owning worker. That execution model has hazards the
inline backend never exposes: closure state snapshotted at fork time and
mutated independently per process, process-local objects (locks, file
handles, RNG instances, sockets) duplicated by the fork, ``hash()``-derived
record keys that differ across worker interpreters, and captured state
whose pickle failure would otherwise surface mid-superstep as a
:class:`~repro.errors.WorkerFailedError`.

This pass detects those statically at build time. It is opt-in
(``analyze(dataflow, concurrency=True)``); strict process-backend runs
enable it automatically so a doomed plan is refused before any epoch
executes. Rule ids are ``GS-S3xx``; the catalog with examples lives in
``docs/analysis.md``. Findings on a callable can be silenced with the
usual ``# analyze: ignore[rule-id]`` comment on the offending line or the
callable's ``def``/lambda line.
"""

from __future__ import annotations

import ast
import inspect
import io
import pickle
import socket
import textwrap
import types
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.analyze.plan import PlanWalk
from repro.analyze.report import Finding, Rule, Severity
from repro.analyze.udf import (
    _RawFinding,
    _callable_name,
    _check_external_mutation,
    _dotted_root,
    _find_node,
    _parse_block,
    _suppressed_rules,
    udf_sites,
)

SHARD_RULES: Dict[str, Rule] = {rule.id: rule for rule in (
    Rule("GS-S301", Severity.ERROR, "closure captures a process-local object",
         "The callable closes over a lock, open file, socket, RNG instance, "
         "live generator, or thread/process handle. Forked workers duplicate "
         "the object: a lock held at fork time deadlocks the child, file "
         "descriptors share offsets, and RNG streams diverge per process."),
    Rule("GS-S302", Severity.ERROR, "shippable kernel mutates captured state",
         "A reduce/join kernel writes to closed-over or global state. On "
         "backend='process' the kernel runs in a forked worker whose copy "
         "of that state silently diverges from the coordinator's (and from "
         "the inline backend), so the two backends stop being "
         "observationally identical."),
    Rule("GS-S303", Severity.ERROR, "hash()-derived record in a keyed role",
         "A record-producing callable derives output from hash(). Worker "
         "processes are forked from one interpreter, but str/bytes hashes "
         "still differ between coordinator restarts and across "
         "PYTHONHASHSEED, so shard routing and join keys are not stable."),
    Rule("GS-S304", Severity.ERROR, "captured kernel state fails pickling",
         "A value captured by a reduce/join kernel does not survive a "
         "pickle round-trip. The exchange channels pickle every frame; "
         "state that cannot pickle is the canonical predictor of a "
         "mid-superstep WorkerFailedError — surface it at build time "
         "instead."),
    Rule("GS-S305", Severity.WARNING, "shippable kernel reads captured "
         "mutable container",
         "A reduce/join kernel reads a closed-over or global list/dict/"
         "set. The worker's copy is a fork-time snapshot: any coordinator-"
         "side mutation after the first superstep is invisible to the "
         "kernel, unlike on the inline backend."),
    Rule("GS-S306", Severity.WARNING, "I/O from a shippable kernel",
         "A reduce/join kernel performs console or file I/O. On "
         "backend='process' it executes inside forked workers, so output "
         "interleaves nondeterministically across processes and never "
         "reaches the coordinator's streams."),
)}

#: Roles whose callables run inside a keyed operator's kernel, hence on the
#: key's owning worker process. Every ``KeyedOperator`` is registered with
#: the cluster, but only reduce and the joins (plain and arranged, both
#: role "join") carry a user callable.
_SHIPPABLE_ROLES = {"reduce", "join"}

#: Roles whose callables produce records (and therefore keys) that reach
#: sharding and joins downstream. ``filter`` only drops records, so a
#: hash() in a predicate cannot leak into keys.
_KEYED_ROLES = {"map", "reduce", "join"}

#: Binding values that are code, not data: fork ships them by inheritance
#: and they never cross an exchange channel, so the pickle probe and the
#: container checks skip them.
_CODE_TYPES = (types.FunctionType, types.BuiltinFunctionType,
               types.MethodType, types.ModuleType, type)

_MUTABLE_CONTAINERS = (list, dict, set, bytearray)

_IO_NAMES = {"print", "open", "input"}


def _referenced_names(code: types.CodeType) -> Iterable[str]:
    """Global/attribute names referenced by ``code`` and every code object
    nested inside it (comprehensions and lambdas compile to nested code
    objects on Python < 3.12)."""
    yield from code.co_names
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            yield from _referenced_names(const)


def closure_bindings(func) -> Dict[str, Any]:
    """``name -> captured value`` for a callable's closure cells, argument
    defaults, and referenced module globals.

    Best-effort and read-only; non-function callables (builtins, partials
    without ``__code__``) yield an empty mapping.
    """
    func = inspect.unwrap(func)
    if inspect.ismethod(func):
        func = func.__func__
    if not inspect.isfunction(func):
        return {}
    bindings: Dict[str, Any] = {}
    code = func.__code__
    for name, cell in zip(code.co_freevars, func.__closure__ or ()):
        try:
            bindings[name] = cell.cell_contents
        except ValueError:  # pragma: no cover - empty cell
            continue
    defaults = func.__defaults__ or ()
    if defaults:
        arg_names = code.co_varnames[:code.co_argcount]
        for name, value in zip(arg_names[-len(defaults):], defaults):
            bindings.setdefault(name, value)
    for name, value in (func.__kwdefaults__ or {}).items():
        bindings.setdefault(name, value)
    module_globals = getattr(func, "__globals__", None) or {}
    for name in _referenced_names(code):
        if name in module_globals and name not in bindings:
            bindings[name] = module_globals[name]
    return bindings


def cell_and_default_bindings(func) -> Dict[str, Any]:
    """Like :func:`closure_bindings` but without module globals — the
    state that is genuinely private to the closure (the pickle probe's
    scope: globals are re-imported by the fork, not carried)."""
    func = inspect.unwrap(func)
    if inspect.ismethod(func):
        func = func.__func__
    if not inspect.isfunction(func):
        return {}
    bindings: Dict[str, Any] = {}
    code = func.__code__
    for name, cell in zip(code.co_freevars, func.__closure__ or ()):
        try:
            bindings[name] = cell.cell_contents
        except ValueError:  # pragma: no cover - empty cell
            continue
    defaults = func.__defaults__ or ()
    if defaults:
        arg_names = code.co_varnames[:code.co_argcount]
        for name, value in zip(arg_names[-len(defaults):], defaults):
            bindings.setdefault(name, value)
    for name, value in (func.__kwdefaults__ or {}).items():
        bindings.setdefault(name, value)
    return bindings


def _process_local(value: Any) -> Optional[str]:
    """Describe ``value`` when duplicating it across forked processes is a
    hazard; ``None`` when it is fork-safe."""
    import random
    import threading

    if isinstance(value, io.IOBase):
        return "an open file handle"
    if isinstance(value, socket.socket):
        return "an open socket"
    if isinstance(value, random.Random):
        return "an RNG instance"
    if isinstance(value, (types.GeneratorType, types.CoroutineType,
                          types.AsyncGeneratorType)):
        return "a live generator"
    if isinstance(value, threading.Thread):
        return "a thread handle"
    if isinstance(value, threading.local):
        return "thread-local storage"
    if isinstance(value, (threading.Event, threading.Condition,
                          threading.Semaphore, threading.Barrier)):
        return f"a threading.{type(value).__name__}"
    module = type(value).__module__ or ""
    if module == "_thread":
        return f"a {type(value).__name__} (lock)"
    if module.split(".")[0] == "multiprocessing":
        return f"a multiprocessing {type(value).__name__}"
    return None


def _callable_node(func) -> Tuple[Optional[ast.AST], List[str], int]:
    """The AST node of ``func`` plus its source lines and parse base.

    Mirrors :func:`repro.analyze.udf.lint_callable`'s source recovery;
    ``(None, lines, 1)`` when the source is unavailable or unparsable
    (builtins, REPL lambdas) — skipped, not failed.
    """
    func = inspect.unwrap(func)
    if inspect.ismethod(func):
        func = func.__func__
    if not inspect.isfunction(func):
        return None, [], 1
    try:
        source = textwrap.dedent(inspect.getsource(func))
    except (OSError, TypeError):
        return None, [], 1
    tree, base = _parse_block(source)
    if tree is None:
        return None, source.splitlines(), 1
    return _find_node(tree, func, base), source.splitlines(), base


def _check_worker_io(node: ast.AST) -> Iterable[_RawFinding]:
    for sub in ast.walk(node):
        if not isinstance(sub, ast.Call):
            continue
        target = sub.func
        if isinstance(target, ast.Name) and target.id in _IO_NAMES:
            yield _RawFinding(
                "GS-S306", sub.lineno,
                f"calls {target.id}() from a shippable kernel; on "
                f"backend='process' this runs inside a forked worker",
                hint="observe with inspect() on the coordinator, or drop "
                     "the I/O")
            continue
        rooted = _dotted_root(target)
        if rooted is not None and rooted[0] == "sys":
            yield _RawFinding(
                "GS-S306", sub.lineno,
                f"calls sys.{rooted[1]}() from a shippable kernel; worker "
                f"processes do not share the coordinator's streams",
                hint="observe with inspect() on the coordinator, or drop "
                     "the I/O")


def _check_hash_keys(node: ast.AST) -> Iterable[_RawFinding]:
    for sub in ast.walk(node):
        if (isinstance(sub, ast.Call) and isinstance(sub.func, ast.Name)
                and sub.func.id == "hash"):
            yield _RawFinding(
                "GS-S303", sub.lineno,
                "derives a record from hash(); shard routing and join "
                "keys built from it differ across PYTHONHASHSEED",
                hint="use repro.timely.stable_hash(...) instead")


def _finding(rule_id: str, where: str, message: str,
             hint: str = "") -> Finding:
    rule = SHARD_RULES[rule_id]
    return Finding(rule=rule.id, severity=rule.severity, operator=where,
                   message=message, hint=hint)


def check_shard(dataflow,
                walk: Optional[PlanWalk] = None) -> Tuple[List[Finding], int]:
    """Run every shard-safety rule; returns (findings, kernels probed)."""
    if walk is None:
        walk = PlanWalk(dataflow)
    findings: List[Finding] = []
    probed = 0
    for op, role, func in udf_sites(dataflow):
        where = f"{walk.path(op)} udf {_callable_name(func)}"
        node, lines, base = _callable_node(func)
        def_ignores = _suppressed_rules(lines[0]) if lines else set()

        def emit_runtime(rule_id: str, message: str, hint: str) -> None:
            if rule_id not in def_ignores:
                findings.append(_finding(rule_id, where, message, hint))

        bindings = closure_bindings(func)
        for name, value in sorted(bindings.items()):
            described = _process_local(value)
            if described is not None:
                emit_runtime(
                    "GS-S301",
                    f"captures {described} as {name!r}; forked workers "
                    f"duplicate it and the copies diverge",
                    "create the object inside the callable, or keep it "
                    "out of the dataflow entirely")

        if role in _SHIPPABLE_ROLES:
            probed += 1
            private = cell_and_default_bindings(func)
            for name, value in sorted(private.items()):
                if isinstance(value, _CODE_TYPES):
                    continue
                try:
                    pickle.loads(pickle.dumps(value))
                except Exception as exc:
                    emit_runtime(
                        "GS-S304",
                        f"captured binding {name!r} "
                        f"({type(value).__name__}) fails a pickle "
                        f"round-trip: {exc!r}; a process-backend run "
                        f"would die mid-superstep with WorkerFailedError",
                        "capture plain picklable data, or run this plan "
                        "on backend='inline'")
            for name, value in sorted(bindings.items()):
                if isinstance(value, _CODE_TYPES):
                    continue
                if isinstance(value, _MUTABLE_CONTAINERS):
                    emit_runtime(
                        "GS-S305",
                        f"reads captured mutable "
                        f"{type(value).__name__} {name!r}; workers see a "
                        f"fork-time snapshot that coordinator-side "
                        f"mutations never update",
                        "capture an immutable value (tuple/frozenset) "
                        "computed before the run")

        if node is None:
            continue
        raw: List[_RawFinding] = []
        if role in _SHIPPABLE_ROLES:
            for item in _check_external_mutation(node):
                raw.append(_RawFinding(
                    "GS-S302", item.line,
                    f"{item.message}; on backend='process' this state "
                    f"lives in a forked worker and diverges from the "
                    f"inline backend",
                    hint="thread state through records or reduce over it "
                         "explicitly"))
            raw.extend(_check_worker_io(node))
        if role in _KEYED_ROLES:
            raw.extend(_check_hash_keys(node))
        if base != 1:
            for item in raw:
                item.line -= base - 1
        for item in raw:
            ignore = set(def_ignores)
            if 1 <= item.line <= len(lines):
                ignore |= _suppressed_rules(lines[item.line - 1])
            if item.rule in ignore:
                continue
            findings.append(_finding(item.rule, where, item.message,
                                     item.hint))
    return findings, probed
