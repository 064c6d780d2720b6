"""Source lint that needs no third-party tool: no unused imports in
src/repro, and no third-party import that pyproject.toml does not declare.

``make lint-src`` runs ruff, which only CI installs; these AST rules are
the checks every tier-1 run makes. An import counts as used when its bound
name appears anywhere in the module (as a name, in a string annotation,
or in ``__all__``). A ``# noqa: F401`` (or bare ``# noqa``) on any line of
the import statement and the ``F401`` entries of ruff's
``per-file-ignores`` in pyproject.toml exempt it, as they do for ruff.
The set of third-party top-level modules src/repro imports must equal the
declared runtime dependencies, so neither side drifts. And a computation
request is parsed only by the name table: outside it, no module spells the
list parameters ``"pairs"``/``"seeds"`` (bar the two algorithms taking them
and the fuzzer's samplers) or reads ``NAMES``/``PARAM_TYPES``. Finally, no
def under src/repro is reached only by tests: each needs a live caller in
the package, perf/, examples/ or benchmarks/, bar the test oracles listed
in ``ORACLES`` (see docs/verification.md). Likewise no defaulted
parameter of such a def outlives its setters: one of the live calls must
pass it, bar the seams listed in ``SEAMS``. And history folds in one
place: the capture log's fold (the one ``compact_below`` def) and the
``(0,) + t[1:]`` epoch fold appear only in ``differential/trace.py``.
"""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
NOQA = re.compile(r"#\s*noqa(?::\s*(?P<codes>[A-Z0-9, ]+))?", re.IGNORECASE)
# The per-file-ignores table, up to the next table header; read with a
# regex so the rule runs on every supported Python (tomllib is 3.11+).
PER_FILE = re.compile(r"^\[tool\.ruff\.lint\.per-file-ignores\]\n(.*?)(?=^\[|\Z)",
                      re.MULTILINE | re.DOTALL)
IGNORE_ROW = re.compile(r'^"(?P<path>[^"]+)"\s*=\s*\[(?P<codes>[^\]]*)\]',
                        re.MULTILINE)
DEPENDENCIES = re.compile(r"^dependencies\s*=\s*\[(?P<items>[^\]]*)\]",
                          re.MULTILINE)
REQUIREMENT = re.compile(r'"\s*(?P<name>[A-Za-z0-9_.-]+)')


def ignored_files(config):
    table = PER_FILE.search(config)
    rows = IGNORE_ROW.finditer(table[1]) if table else ()
    return {ROOT / row["path"] for row in rows if '"F401"' in row["codes"]}


def exempt(lines, node):
    for line in lines[node.lineno - 1:node.end_lineno]:
        match = NOQA.search(line)
        if match and (match["codes"] is None or "F401" in match["codes"]):
            return True
    return False


def annotation_names(annotation):
    """Names an annotation references, including inside strings."""
    for node in ast.walk(annotation):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                parsed = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            yield from annotation_names(parsed)


def exported(node):
    """The strings of an ``__all__ = [...]`` (or ``+=``) assignment."""
    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
    if (any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets)
            and isinstance(node.value, (ast.List, ast.Tuple))):
        return {elt.value for elt in node.value.elts
                if isinstance(elt, ast.Constant)}
    return set()


def used_names(tree):
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            used |= exported(node)
        annotation = (node.annotation if isinstance(node, (ast.arg,
                                                           ast.AnnAssign))
                      else getattr(node, "returns", None))
        if annotation is not None:
            used.update(annotation_names(annotation))
    return used


def unused_imports(source):
    """``(line, imported name)`` for every unexempted unused import."""
    lines = source.splitlines()
    tree = ast.parse(source)
    used = used_names(tree)
    for node in ast.walk(tree):
        if (not isinstance(node, (ast.Import, ast.ImportFrom))
                or getattr(node, "module", None) == "__future__"
                or exempt(lines, node)):
            continue
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            if alias.name != "*" and bound not in used:
                yield node.lineno, alias.name


def test_no_unused_imports_in_src():
    skip = ignored_files((ROOT / "pyproject.toml").read_text())
    assert ROOT / "src" / "repro" / "__init__.py" in skip
    found = [f"{path.relative_to(ROOT)}:{line}: {name}"
             for path in sorted((ROOT / "src" / "repro").rglob("*.py"))
             if path not in skip
             for line, name in unused_imports(path.read_text())]
    assert not found, "unused imports:\n" + "\n".join(found)


def declared_dependencies(config):
    """Import names of pyproject.toml's ``[project] dependencies``."""
    items = DEPENDENCIES.search(config)["items"]
    return {match["name"].lower().replace("-", "_")
            for match in REQUIREMENT.finditer(items)}


def third_party_imports(source):
    """Top-level names of the absolute imports outside the standard
    library and the package itself."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        for name in names:
            top = name.split(".")[0]
            if top != "repro" and top not in sys.stdlib_module_names:
                yield top


@pytest.mark.skipif(not hasattr(sys, "stdlib_module_names"),
                    reason="needs Python 3.10+")
def test_third_party_imports_are_the_declared_dependencies():
    declared = declared_dependencies((ROOT / "pyproject.toml").read_text())
    imported = {}
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        for name in third_party_imports(path.read_text()):
            imported.setdefault(name, str(path.relative_to(ROOT)))
    assert set(imported) == declared, (
        f"imported {imported}, declared {sorted(declared)}")


@pytest.mark.skipif(not hasattr(sys, "stdlib_module_names"),
                    reason="needs Python 3.10+")
def test_dependency_rule_reads_requirements_and_imports():
    config = ('[project]\nname = "x"\ndependencies = [\n'
              '    "numpy>=2.0",\n    "Some-Lib ; python_version<\'4\'",\n]\n'
              '[project.optional-dependencies]\ndev = ["pytest"]\n')
    assert declared_dependencies(config) == {"numpy", "some_lib"}
    source = ("import os, numpy.linalg\nfrom json import dumps\n"
              "from . import sibling\nfrom repro.errors import E\n"
              "def f():\n    import yaml as y\n")
    assert list(third_party_imports(source)) == ["numpy", "yaml"]


def test_rule_flags_and_exempts():
    source = ("from typing import Dict, List, Optional\n"
              "import os.path\n"
              "import json  # noqa: F401\n"
              "from x import (  # noqa: F401\n"
              "    y,\n"
              ")\n"
              "import sys\n"
              "__all__ = ['sys']\n"
              "def f(x: 'Optional[int]') -> Dict:\n"
              "    return os.path.sep\n")
    assert list(unused_imports(source)) == [(1, "List")]


#: Where list-parameter names may be spelled out: the name table that
#: parses them, the two algorithms that take them, the fuzzer's samplers.
PARAM_NAME_OWNERS = {"algorithms/registry.py", "algorithms/mpsp.py",
                     "algorithms/ppr.py", "verify/oracles.py"}
TABLE_INTERNALS = {"NAMES", "PARAM_TYPES"}


def request_parsing_copies(source):
    """``(line, what)`` for each place a module outside the name table
    spells a list parameter's name or reads the table's internals."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Constant) and node.value in ("pairs",
                                                             "seeds"):
            yield node.lineno, repr(node.value)
        elif isinstance(node, ast.Attribute) and node.attr in TABLE_INTERNALS:
            yield node.lineno, node.attr
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if alias.name in TABLE_INTERNALS:
                    yield node.lineno, alias.name


def test_requests_are_parsed_only_by_the_name_table():
    """One owner for a computation request: no surface splits list text
    or resolves names on its own (see ``repro.algorithms.registry``)."""
    package = ROOT / "src" / "repro"
    found = []
    for path in sorted(package.rglob("*.py")):
        owner = str(path.relative_to(package))
        for line, what in request_parsing_copies(path.read_text()):
            allowed = ({"algorithms/registry.py"} if what in TABLE_INTERNALS
                       else PARAM_NAME_OWNERS)
            if owner not in allowed:
                found.append(f"{path.relative_to(ROOT)}:{line}: {what}")
    assert not found, "request parsing outside the name table:\n" + \
        "\n".join(found)


def test_request_rule_flags_copies():
    source = ('from repro.algorithms.registry import NAMES\n'
              'x = registry.PARAM_TYPES\n'
              'if key == "pairs": pass\n'
              'doc = "seeds and pairs"\n')
    assert list(request_parsing_copies(source)) == [
        (1, "NAMES"), (2, "PARAM_TYPES"), (3, "'pairs'")]


#: The one module that decides how closed epochs fold into a history.
FOLD_OWNER = "differential/trace.py"


#: A def of this name folds a per-epoch history after the fact; the
#: capture log's (``KeyTrace.compact_below``) is the only one left.
FOLD_DEF = "compact_below"
#: ``(0,) + t[1:]``: a time mapped onto its epoch-0 representative.
EPOCH_FOLD = re.compile(r"\(0,\) \+ [\w.]+\[1:\]")


def history_fold_copies(source):
    """``(line, what)`` for each fold def or epoch fold in a module."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.BinOp) and \
                EPOCH_FOLD.fullmatch(ast.unparse(node)):
            yield node.lineno, "(0,) + t[1:]"
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and node.name == FOLD_DEF:
            yield node.lineno, FOLD_DEF


def test_history_folds_only_in_the_trace_module():
    """One owner for folding history: keyed traces fold a time to its key
    time as they write, the capture log folds closed epochs on request,
    and no other store of timestamped differences keeps a copy."""
    package = ROOT / "src" / "repro"
    found = [f"{path.relative_to(ROOT)}:{line}: {what}"
             for path in sorted(package.rglob("*.py"))
             if str(path.relative_to(package)) != FOLD_OWNER
             for line, what in history_fold_copies(path.read_text())]
    assert not found, "history folded outside the trace module:\n" + \
        "\n".join(found)
    owner = [what for _line, what in
             history_fold_copies((package / FOLD_OWNER).read_text())]
    assert owner.count(FOLD_DEF) == 1, \
        "the capture log's fold is the one compact_below"
    assert "(0,) + t[1:]" in owner


def test_fold_rule_flags_planted_copies():
    source = ('class Log:\n'
              '    def compact_below(self, epoch):\n'
              '        return {(0,) + t[1:]: d for t, d in self.entries}\n'
              '    def compact(self, time):\n'
              '        return (0,) + time[1:]\n'
              'keep = (0,) + time[2:]\n'
              'other = (1,) + time[1:]\n'
              'whole = (0,) + time[1:3]\n')
    assert sorted(history_fold_copies(source)) == [
        (2, "compact_below"), (3, "(0,) + t[1:]"), (5, "(0,) + t[1:]")]


#: Oracles: checks and references the tests compare the engine against.
#: Nothing in the program calls them, and moving them under tests/ would
#: reduce nothing, so they stay where they are. Every other def under
#: src/repro needs a live caller.
ORACLES = {
    "repro.differential.timestamp.lub_closure":
        "TimeSchedule's reference for the closure of input times",
    "repro.observe.export.validate_chrome_trace":
        "the schema the exported Chrome traces are checked against",
    "repro.core.diff_stream.accumulate_view":
        "rebuilds a view from the difference stream for the EBM tests",
    "repro.core.ordering.christofides.tour_length":
        "the tour cost the 1.5x Christofides bound test compares",
}
#: Where code outside the package keeps a def alive (tests/ never does).
ENTRY_POINTS = ("perf", "examples", "benchmarks")
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def skipped_strings(tree):
    """Docstrings and ``__all__`` entries: strings that name no caller."""
    skip = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, *DEFS)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)):
                skip.add(id(first.value))
        elif isinstance(node, (ast.Assign, ast.AugAssign)) and exported(node):
            skip.update(id(sub) for sub in ast.walk(node.value))
    return skip


class References(ast.NodeVisitor):
    """The defs of one module and the names its code references.

    ``defs`` maps a def's qualified name to ``(name, enclosing def,
    is_method)``; ``refs`` holds ``(name, kind, owner)`` per reference,
    ``owner`` being the innermost enclosing def (``None`` at module level)
    and ``kind`` one of ``name``, ``attr`` and ``str``. A def's decorators,
    arguments and bases belong to its own body. Imports reference nothing.
    """

    def __init__(self, module, tree):
        self.module, self.owner = module, None
        self.defs, self.refs, self.classes = {}, [], set()
        self.skip = skipped_strings(tree)
        self.visit(tree)

    def visit_def(self, node):
        parent = self.owner
        qualname = f"{parent or self.module}.{node.name}"
        self.defs[qualname] = (node.name, parent, parent in self.classes)
        if isinstance(node, ast.ClassDef):
            self.classes.add(qualname)
        self.owner = qualname
        self.generic_visit(node)
        self.owner = parent

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = visit_def

    def visit_Import(self, node):
        pass

    visit_ImportFrom = visit_Import

    def visit_Name(self, node):
        self.refs.append((node.id, "name", self.owner))

    def visit_Attribute(self, node):
        self.refs.append((node.attr, "attr", self.owner))
        self.generic_visit(node)

    def visit_Constant(self, node):
        if (isinstance(node.value, str) and node.value.isidentifier()
                and id(node) not in self.skip):
            self.refs.append((node.value, "str", self.owner))


def is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def dead_defs(package, entry_points):
    """Qualified names of the defs in ``package`` (``{module: source}``)
    that no live code references, given the sources of the entry points.

    Module-level code of the package and every line of an entry point are
    live. A def turns live when a live body references its name, not from
    inside the def itself; a method needs an attribute or string reference
    (a bare name there is a local, not the method) unless the reference
    sits in its own class body. Dunders live with their class.
    """
    defs, by_owner, by_name = {}, {}, {}
    for module, source in package.items():
        found = References(module, ast.parse(source))
        defs.update(found.defs)
        for name, kind, owner in found.refs:
            by_owner.setdefault(owner, []).append((name, kind))
    for source in entry_points:
        for name, kind, _owner in References("", ast.parse(source)).refs:
            by_owner.setdefault(None, []).append((name, kind))
    dunders = {}
    for qualname, (name, parent, _method) in defs.items():
        by_name.setdefault(name, []).append(qualname)
        if is_dunder(name):
            dunders.setdefault(parent, []).append(qualname)
    live = set()
    pending = [None]
    while pending:
        owner = pending.pop()
        if owner is not None:
            if owner in live:
                continue
            live.add(owner)
        pending.extend(dunders.get(owner, ()))
        for name, kind in by_owner.get(owner, ()):
            for target in by_name.get(name, ()):
                _name, parent, is_method = defs[target]
                inside = owner is not None and (
                    owner == target or owner.startswith(target + "."))
                if (target in live or inside
                        or (is_method and kind == "name" and owner != parent)):
                    continue
                pending.append(target)
    return sorted(set(defs) - live)


def package_sources():
    package = ROOT / "src"
    return {".".join(path.relative_to(package).with_suffix("").parts)
            .removesuffix(".__init__"): path.read_text()
            for path in sorted((package / "repro").rglob("*.py"))}


def test_every_def_has_a_live_caller():
    """A def under src/repro stays only while the CLI, the experiments,
    perf/, an example, a benchmark or another live def references it;
    ORACLES lists the exceptions, and only defs that need the exception."""
    entry_points = [path.read_text() for directory in ENTRY_POINTS
                    for path in sorted((ROOT / directory).glob("*.py"))]
    dead = dead_defs(package_sources(), entry_points)
    callerless = [name for name in dead if name not in ORACLES]
    assert not callerless, (
        "defs only tests reach (delete them, or list a test oracle in "
        "ORACLES):\n" + "\n".join(callerless))
    stale = sorted(set(ORACLES) - set(dead))
    assert not stale, f"ORACLES entries that are live or gone: {stale}"


def test_dead_def_rule_flags_planted_defs():
    module = ('"""Docstring naming planted."""\n'
              "__all__ = ['planted']\n"
              "def used():\n    return helper()\n"
              "def helper():\n    return 1\n"
              "def planted():\n    return planted() + unused_helper()\n"
              "def unused_helper():\n    return 2\n"
              "def by_string():\n    return 3\n"
              "class Shape:\n"
              "    def __init__(self):\n        self.area = 0\n"
              "    def area(self):\n        return 1\n"
              "    def perimeter(self):\n        return 2\n"
              "    def outline(self):\n        perimeter = 1\n"
              "        return perimeter\n"
              "TABLE = {'by_string': 1}\n")
    entry = ("from pkg.mod import used, planted\n"
             "used()\nShape().outline()\n")
    assert dead_defs({"pkg.mod": module}, [entry]) == [
        "pkg.mod.Shape.perimeter", "pkg.mod.planted",
        "pkg.mod.unused_helper"]


#: One rule of the scan per case: ``(module source, entry-point source,
#: the defs the scan must report dead)``. The module is ``pkg.mod``.
SCAN_CASES = {
    "entry-point-call-keeps-live": (
        "def run():\n    return 1\n", "run()\n", []),
    "uncalled-def-is-dead": (
        "def run():\n    return 1\n", "", ["pkg.mod.run"]),
    "live-body-keeps-helper-live": (
        "def run():\n    return helper()\n"
        "def helper():\n    return 1\n", "run()\n", []),
    "dead-body-keeps-nothing-live": (
        "def run():\n    return helper()\n"
        "def helper():\n    return 1\n", "",
        ["pkg.mod.helper", "pkg.mod.run"]),
    "self-recursion-is-no-caller": (
        "def loop(n):\n    return loop(n - 1) if n else 0\n", "",
        ["pkg.mod.loop"]),
    "import-is-no-reference": (
        "def run():\n    return 1\n", "from pkg.mod import run\n",
        ["pkg.mod.run"]),
    "all-entry-is-no-reference": (
        "__all__ = ['run']\ndef run():\n    return 1\n", "",
        ["pkg.mod.run"]),
    "docstring-is-no-reference": (
        '"""See run."""\ndef run():\n    return 1\n', "",
        ["pkg.mod.run"]),
    "string-constant-is-a-reference": (
        "def run():\n    return 1\nTABLE = {'run': 1}\n", "", []),
    "module-level-code-is-live": (
        "def run():\n    return 1\nVALUE = run()\n", "", []),
    "decorator-belongs-to-its-def": (
        "def deco(fn):\n    return fn\n"
        "@deco\ndef run():\n    return 1\n", "",
        ["pkg.mod.deco", "pkg.mod.run"]),
    "attribute-call-keeps-method-live": (
        "class Shape:\n    def area(self):\n        return 1\n",
        "Shape().area()\n", []),
    "bare-name-is-no-method-call": (
        "class Shape:\n    def area(self):\n        return 1\n"
        "    def outline(self):\n        area = 2\n        return area\n",
        "Shape().outline()\n", ["pkg.mod.Shape.area"]),
    "class-body-name-keeps-method-live": (
        "class Shape:\n    def area(self):\n        return 1\n"
        "    size = area\n", "Shape()\n", []),
    "dunders-live-with-their-class": (
        "class Shape:\n    def __len__(self):\n        return 1\n",
        "Shape()\n", []),
    "dunders-of-a-dead-class-are-dead": (
        "class Shape:\n    def __len__(self):\n        return 1\n", "",
        ["pkg.mod.Shape", "pkg.mod.Shape.__len__"]),
    "nested-def-lives-with-its-caller": (
        "def run():\n    def inner():\n        return 1\n"
        "    return inner()\n", "run()\n", []),
}


@pytest.mark.parametrize("module, entry, expected", SCAN_CASES.values(),
                         ids=SCAN_CASES.keys())
def test_dead_def_scan_rules(module, entry, expected):
    assert dead_defs({"pkg.mod": module}, [entry]) == expected


#: Parameters kept though no live caller sets them: seams the tests use
#: to substitute a clock, a meter or a fault, and report inputs the docs
#: document. ``{def's qualified name: {parameter: reason}}``. Every other
#: defaulted parameter with live call sites needs one that passes it, and
#: a seam needs a test that passes it.
SEAMS = {
    "repro.cli.main": {"argv": "tests drive the CLI in-process"},
    "repro.bench.__main__.main": {
        "argv": "tests drive the paper tables in-process"},
    "repro.core.resilience.RunBudget.__init__": {
        "clock": "tests step a fake clock through the wall-time limit"},
    "repro.serve.breakers.BreakerBoard.__init__": {
        "clock": "tests step a fake clock through the cool-down"},
    "repro.differential.dataflow.Dataflow.__init__": {
        "meter": "tests pass a logging meter to see every charge"},
    "repro.serve.session.ServeSession.__init__": {
        "fault_plan": "tests inject faults into the residents it builds"},
    "repro.core.resilience.FaultPlan.single": {
        "kind": "tests plant a corrupt-kind fault, not only a raise"},
    "repro.serve.lifecycle.run_server": {
        "install_signals": "in-process tests must not take over SIGTERM",
        "log": "tests capture the boot and drain lines"},
    "repro.verify.generator.random_churn_collection": {
        "num_views": "tests pin a case size the fuzzer draws at random",
        "num_nodes": "tests pin a case size the fuzzer draws at random",
        "churn": "tests pin a case size the fuzzer draws at random"},
    "repro.core.system.Graphsurge.explain": {
        "checkpoint_path": "a report input documented in docs/resilience.md",
        "run_result": "a report input documented in docs/observability.md",
        "analysis": "a report input documented in docs/analysis.md"},
}


def defaulted_params(node, is_method):
    """``[(parameter, positional index or None)]`` of a def's parameters
    that have defaults; the index counts from the first argument a call
    passes (after ``self``/``cls`` for a method)."""
    args = node.args
    positional = args.posonlyargs + args.args
    skip = 1 if is_method and not any(
        isinstance(d, ast.Name) and d.id == "staticmethod"
        for d in node.decorator_list) else 0
    first_default = len(positional) - len(args.defaults)
    found = [(arg.arg, index - skip)
             for index, arg in enumerate(positional) if index >= first_default]
    found += [(arg.arg, None) for arg, default
              in zip(args.kwonlyargs, args.kw_defaults) if default is not None]
    return found


class Params(ast.NodeVisitor):
    """Defaulted parameters of a module's defs, keyed by the name a call
    uses: a function's or method's own name, a class's for its
    ``__init__``."""

    def __init__(self, module, tree):
        self.module, self.stack, self.found = module, [], []
        self.visit(tree)

    def visit_ClassDef(self, node):
        self.stack.append(node)
        self.generic_visit(node)
        self.stack.pop()

    def visit_FunctionDef(self, node):
        parent = self.stack[-1] if self.stack else None
        is_method = isinstance(parent, ast.ClassDef)
        qualname = ".".join([self.module] + [n.name for n in self.stack]
                            + [node.name])
        called_as = parent.name if is_method and \
            node.name == "__init__" else node.name
        params = defaulted_params(node, is_method)
        if params:
            self.found.append((qualname, called_as, params))
        self.stack.append(node)
        self.generic_visit(node)
        self.stack.pop()

    visit_AsyncFunctionDef = visit_FunctionDef


def call_sites(tree):
    """``(called name, positional count, keywords)`` per call; a call
    that unpacks ``*args`` or ``**kwargs`` passes everything (``None``)."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = (func.id if isinstance(func, ast.Name) else
                func.attr if isinstance(func, ast.Attribute) else None)
        if name is None:
            continue
        if any(isinstance(a, ast.Starred) for a in node.args) or \
                any(k.arg is None for k in node.keywords):
            yield name, None, None
        else:
            yield name, len(node.args), {k.arg for k in node.keywords}


def unset_params(package, entry_points):
    """``[(qualified def name, parameter)]`` for each defaulted parameter
    of a def in ``package`` (``{module: source}``) that has call sites in
    the package or the entry points, none of which passes it by keyword
    or by position. Calls are matched to defs by name."""
    defs, calls = [], {}
    for module, source in package.items():
        tree = ast.parse(source)
        defs += Params(module, tree).found
        for name, count, keywords in call_sites(tree):
            calls.setdefault(name, []).append((count, keywords))
    for source in entry_points:
        for name, count, keywords in call_sites(ast.parse(source)):
            calls.setdefault(name, []).append((count, keywords))
    unset = []
    for qualname, called_as, params in defs:
        sites = calls.get(called_as, ())
        if not sites or any(count is None for count, _ in sites):
            continue
        for param, index in params:
            if not any(param in keywords or
                       (index is not None and count > index)
                       for count, keywords in sites):
                unset.append((qualname, param))
    return unset


def entry_point_sources():
    return [path.read_text() for directory in ENTRY_POINTS
            for path in sorted((ROOT / directory).glob("*.py"))]


def test_every_parameter_has_a_live_setter():
    """A defaulted parameter stays only while a live call passes it; one
    no caller sets is a constant, and SEAMS lists the exceptions."""
    unset = unset_params(package_sources(), entry_point_sources())
    unsettable = [f"{qualname}({param}=)" for qualname, param in unset
                  if param not in SEAMS.get(qualname, {})]
    assert not unsettable, (
        "parameters no live caller sets (make them constants, or list a "
        "seam in SEAMS):\n" + "\n".join(unsettable))
    listed = {(qualname, param) for qualname, params in SEAMS.items()
              for param in params}
    stale = sorted(listed - set(unset))
    assert not stale, f"SEAMS entries that a live caller sets or that are " \
        f"gone: {stale}"
    tests = [path.read_text() for path in sorted((ROOT / "tests").rglob(
        "*.py"))]
    untested = sorted(listed & set(unset_params(package_sources(), tests)))
    assert not untested, f"SEAMS entries no test sets either: {untested}"


#: One rule of the parameter scan per case: ``(module source, entry-point
#: source, the parameters it must report unset)``. The module is
#: ``pkg.mod``.
PARAM_CASES = {
    "unset-default-is-flagged": (
        "def run(x, limit=4):\n    return x\nrun(1)\n", "",
        [("pkg.mod.run", "limit")]),
    "entry-point-keyword-sets-it": (
        "def run(x, limit=4):\n    return x\n", "run(1, limit=2)\n", []),
    "entry-point-position-sets-it": (
        "def run(x, limit=4):\n    return x\n", "run(1, 2)\n", []),
    "double-star-call-sets-everything": (
        "def run(x, limit=4):\n    return x\n", "run(**options)\n", []),
    "star-call-sets-everything": (
        "def run(x, limit=4):\n    return x\n", "run(*args)\n", []),
    "uncalled-def-is-left-to-the-dead-def-rule": (
        "def run(x, limit=4):\n    return x\n", "", []),
    "keyword-only-default-needs-its-keyword": (
        "def run(x, *, limit=4):\n    return x\n", "run(1, 2)\n",
        [("pkg.mod.run", "limit")]),
    "constructor-call-reaches-init": (
        "class Server:\n    def __init__(self, port=0, timeout=30):\n"
        "        pass\n", "Server(8080)\n",
        [("pkg.mod.Server.__init__", "timeout")]),
    "method-position-skips-self": (
        "class Shape:\n    def scale(self, factor=2):\n        pass\n",
        "Shape().scale(3)\n", []),
    "static-method-position-counts-from-zero": (
        "class Shape:\n    @staticmethod\n    def unit(size, sides=4):\n"
        "        pass\n", "Shape.unit(1)\n",
        [("pkg.mod.Shape.unit", "sides")]),
}


@pytest.mark.parametrize("module, entry, expected", PARAM_CASES.values(),
                         ids=PARAM_CASES.keys())
def test_parameter_scan_rules(module, entry, expected):
    assert unset_params({"pkg.mod": module}, [entry]) == expected


def test_parameter_rule_flags_a_planted_parameter():
    """A planted defaulted parameter no live caller passes fails the rule
    over the real tree; a perf/-style caller passing it, or a call
    unpacking ``**kwargs``, clears it."""
    package = package_sources()
    package["repro.planted"] = ("def planted(rows, limit=10):\n"
                                "    return rows[:limit]\n"
                                "VALUE = planted([1, 2])\n")
    entry_points = entry_point_sources()
    assert ("repro.planted.planted", "limit") in unset_params(
        package, entry_points)
    for caller in ("planted([], limit=3)\n", "planted(**options)\n"):
        assert ("repro.planted.planted", "limit") not in unset_params(
            package, entry_points + [caller])
