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
and the fuzzer's samplers) or reads ``NAMES``/``PARAM_TYPES``.
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
