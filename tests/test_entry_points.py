"""Every command the Makefile, CI and docs name must exist.

A check lives in tier-1 or in the fuzz battery (``make verify``), not in a
runnable script inside the package. So ``src/repro`` has exactly two
``__main__`` entry points, every ``make <target>`` that CI runs is defined
in the Makefile, and every ``-m repro.…`` module that the Makefile, CI,
README or docs run can be found. Deleting a module while a command still
names it fails here, not in CI or in a reader's shell. Likewise every
backticked ``repro.…`` name in the docs must resolve, every documented call
must pass only keywords its def still accepts, and every CI job that runs
python against the repo must install its declared dependencies.
"""

import ast
import importlib.util
import re
from pathlib import Path

import pytest

from tests.test_source_lint import declared_dependencies, package_sources

ROOT = Path(__file__).resolve().parents[1]
CI = ROOT / ".github" / "workflows" / "ci.yml"
MAIN_GUARD = re.compile(r"^if __name__ == ['\"]__main__['\"]:", re.MULTILINE)
MAKE_TARGET = re.compile(r"^([\w-]+):", re.MULTILINE)
MAKE_CALL = re.compile(r"\bmake ([\w-]+)")
RUN_MODULE = re.compile(r"-m (repro(?:\.\w+)*)")
RUN_KEY = re.compile(r"\s*(?:- )?run: (.*?)\s*$")
DOC_NAME = re.compile(r"`(repro(?:\.\w+)+)")


def runnable(module):
    """``python -m module`` can start: the module, or a package's
    ``__main__``, is importable."""
    spec = importlib.util.find_spec(module)
    if spec is not None and spec.submodule_search_locations is not None:
        spec = importlib.util.find_spec(module + ".__main__")
    return spec is not None


def unrunnable_modules(text):
    return sorted({module for module in RUN_MODULE.findall(text)
                   if not runnable(module)})


def test_only_two_entry_points_in_the_package():
    src = ROOT / "src" / "repro"
    mains = sorted(path.relative_to(src).as_posix()
                   for path in src.rglob("*.py")
                   if MAIN_GUARD.search(path.read_text()))
    assert mains == ["bench/__main__.py", "cli.py"]


def test_ci_make_targets_are_defined():
    targets = set(MAKE_TARGET.findall((ROOT / "Makefile").read_text()))
    called = set(MAKE_CALL.findall(CI.read_text()))
    assert called and called <= targets, sorted(called - targets)


def test_named_modules_are_runnable():
    files = [ROOT / "Makefile", CI, ROOT / "README.md",
             *sorted((ROOT / "docs").glob("*.md"))]
    missing = [f"{path.relative_to(ROOT)}: {module}" for path in files
               for module in unrunnable_modules(path.read_text())]
    assert not missing, "\n".join(missing)


def resolves(dotted):
    """Import the longest importable module prefix of ``dotted`` and
    ``getattr`` the rest."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            value = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attribute in parts[cut:]:
            if not hasattr(value, attribute):
                return False
            value = getattr(value, attribute)
        return True
    return False


DOCS = [ROOT / "README.md", ROOT / "DESIGN.md", ROOT / "EXPERIMENTS.md",
        *sorted((ROOT / "docs").glob("*.md"))]


@pytest.mark.parametrize("path", DOCS,
                         ids=lambda path: path.relative_to(ROOT).as_posix())
def test_documented_names_resolve(path):
    """Every backticked ``repro.…`` name in the prose docs exists, so a
    deletion cannot leave a dangling reference behind."""
    dangling = sorted({name for name in DOC_NAME.findall(path.read_text())
                       if not resolves(name)})
    assert not dangling, f"{path.relative_to(ROOT)}: {dangling}"


@pytest.mark.parametrize("name, expected", [
    ("repro.algorithms", True),
    ("repro.algorithms.Wcc", True),
    ("repro.core.persistence.atomic_write_bytes", True),
    ("repro.differential.trace.KeyTrace.check_cache", True),
    ("repro.graph.validation", False),
    ("repro.differential.debug.to_dot", False),
    ("repro.algorithms.Wcc.no_such_method", False),
])
def test_resolves_imports_the_module_then_walks_attributes(name, expected):
    assert resolves(name) is expected


def test_rule_flags_a_deleted_module():
    makefile = ("paper:\n\t$(PYTHON) -m repro.bench all\n"
                "serve-smoke:\n\t$(PYTHON) -m repro.serve.smoke\n"
                "x:\n\tpython -m repro.cli fuzz; python -m repro.verify\n")
    assert unrunnable_modules(makefile) == ["repro.serve.smoke",
                                            "repro.verify"]


def make_rules(makefile):
    """``{target: (prerequisites, recipe)}`` of a Makefile."""
    return {match[1]: (match[2].split(), match[3]) for match in re.finditer(
        r"^([\w-]+):([^=\n]*)\n((?:\t.*\n?)*)", makefile, re.MULTILINE)}


def ci_jobs(workflow):
    """``{job id: [run command lines]}`` of a GitHub Actions workflow."""
    jobs, job, block = {}, None, None
    lines = workflow.splitlines()
    if "jobs:" in lines:
        lines = lines[lines.index("jobs:"):]
    for line in lines:
        indent = len(line) - len(line.lstrip())
        if block is not None and (not line.strip() or indent > block):
            if line.strip():
                jobs[job].append(line.strip())
            continue
        block = None
        if re.fullmatch(r"  [\w-]+:", line):
            job = line.strip()[:-1]
            jobs[job] = []
        elif job is not None and (run := RUN_KEY.match(line)):
            if run[1] in ("|", ">"):
                block = indent
            else:
                jobs[job].append(run[1])
    return jobs


def runs_python(command, rules):
    """The command starts the interpreter on the repo: ``python …`` that
    is no pip call, or a make target whose recipe (or a prerequisite's)
    runs ``$(PYTHON)``."""
    if "pip install" in command:
        return False
    if re.search(r"\bpython3?\b", command):
        return True

    def target_runs_python(target):
        prerequisites, recipe = rules.get(target, ((), ""))
        return "$(PYTHON)" in recipe or any(
            target_runs_python(name) for name in prerequisites)

    return any(target_runs_python(target)
               for target in MAKE_CALL.findall(command))


def installs(command, declared):
    """The command installs the package, or names every declared
    runtime dependency."""
    if "pip install" not in command:
        return False
    words = command.split("pip install", 1)[1].split()
    if "." in words:
        return True
    named = {re.split(r"[<>=!~\[; ]", word.strip("'\""))[0].lower()
             .replace("-", "_") for word in words}
    return declared <= named


def jobs_missing_dependencies(workflow, makefile, config):
    declared = declared_dependencies(config)
    rules = make_rules(makefile)
    return sorted(job for job, commands in ci_jobs(workflow).items()
                  if any(runs_python(command, rules) for command in commands)
                  and not any(installs(command, declared)
                              for command in commands))


def test_ci_jobs_that_run_python_install_the_dependencies():
    """A fresh runner has no numpy: every job that imports repro must
    install the package (or its declared dependencies) first."""
    missing = jobs_missing_dependencies(
        CI.read_text(), (ROOT / "Makefile").read_text(),
        (ROOT / "pyproject.toml").read_text())
    assert not missing, f"CI jobs run python without numpy: {missing}"


def test_dependency_rule_reads_jobs_and_make_recipes():
    makefile = ("PYTHON ?= python\nverify: fuzz\n\techo\n"
                "fuzz:\n\t$(PYTHON) -m repro.cli fuzz\n"
                "lint:\n\truff check src\n")
    workflow = ("jobs:\n"
                "  bare:\n    steps:\n      - run: make verify\n"
                "  ruff:\n    steps:\n"
                "      - run: python -m pip install ruff\n"
                "      - run: make lint\n"
                "  listed:\n    steps:\n"
                "      - run: python -m pip install \"numpy>=2.0\" pytest\n"
                "      - run: PYTHONPATH=src python -m pytest\n"
                "  editable:\n    steps:\n"
                "      - run: python -m pip install -e .\n"
                "      - name: smoke\n        run: |\n"
                "          python -c 'import repro'\n"
                "  script:\n    steps:\n"
                "      - run: |\n          echo start\n"
                "          PYTHONPATH=src python3 bench.py\n")
    config = '[project]\ndependencies = [\n    "numpy>=2.0",\n]\n'
    assert jobs_missing_dependencies(workflow, makefile, config) == [
        "bare", "script"]


def runs_python_before_installing(commands, declared, rules):
    """A command starts python on the repo before any command has
    installed the package or its declared dependencies."""
    for command in commands:
        if installs(command, declared):
            return False
        if runs_python(command, rules):
            return True
    return False


@pytest.mark.parametrize("job", sorted(ci_jobs(CI.read_text())))
def test_ci_job_installs_before_it_runs_python(job):
    """Order matters too: a step that imports repro before the install
    step fails on a fresh runner even though the job installs later."""
    commands = ci_jobs(CI.read_text())[job]
    assert not runs_python_before_installing(
        commands, declared_dependencies((ROOT / "pyproject.toml").read_text()),
        make_rules((ROOT / "Makefile").read_text())), (
        f"{job} runs python before installing the package: {commands}")


def test_ordering_rule_flags_an_install_after_use():
    rules = make_rules("PYTHON ?= python\nfuzz:\n\t$(PYTHON) -m repro.cli\n")
    declared = {"numpy"}
    late = ["make fuzz", "python -m pip install -e ."]
    early = ["python -m pip install -e .", "make fuzz"]
    assert runs_python_before_installing(late, declared, rules)
    assert not runs_python_before_installing(early, declared, rules)
    assert not runs_python_before_installing(["echo hi"], declared, rules)


FENCE = re.compile(r"^```[^\n]*\n(.*?)^```", re.MULTILINE | re.DOTALL)
INLINE = re.compile(r"`([^`\n]+)`")
CALL_NAME = re.compile(r"([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)\(")
KEYWORD = re.compile(r"([A-Za-z_]\w*)\s*=(?!=)")


def code_spans(text):
    """The fenced code blocks of a markdown text, then its inline code."""
    yield from FENCE.findall(text)
    yield from INLINE.findall(FENCE.sub("", text))


def keyword_calls(code):
    """``(called name, keywords)`` per call in ``code`` that passes
    keywords; nested calls are reported on their own."""
    for match in CALL_NAME.finditer(code):
        depth, start, keywords = 1, match.end(), []
        index = start
        while index < len(code) and depth:
            char = code[index]
            if char in "([{":
                depth += 1
            elif char in ")]}":
                depth -= 1
            elif depth == 1 and (word := KEYWORD.match(code, index)) and \
                    (index == start or not code[index - 1].isidentifier()):
                keywords.append(word[1])
            index += 1
        if keywords:
            yield match[1], keywords


def parameter_names(function):
    """The keywords a def accepts, or None when it takes ``**kwargs``."""
    args = function.args
    return None if args.kwarg else {arg.arg for arg in args.args
                                    + args.kwonlyargs}


def accepted_keywords(package):
    """``{qualified def name: keywords it accepts, or None for any}``:
    a function's parameters, a class's ``__init__``'s, a dataclass's
    annotated fields."""
    accepted = {}

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                accepted[f"{prefix}.{child.name}"] = parameter_names(child)
            elif isinstance(child, ast.ClassDef):
                init = next((c for c in child.body
                             if isinstance(c, ast.FunctionDef)
                             and c.name == "__init__"), None)
                if init is not None:
                    fields = parameter_names(init)
                elif any("dataclass" in ast.unparse(d)
                         for d in child.decorator_list):
                    fields = {c.target.id for c in child.body
                              if isinstance(c, ast.AnnAssign)
                              and isinstance(c.target, ast.Name)}
                else:
                    fields = None
                accepted[f"{prefix}.{child.name}"] = fields
            else:
                continue
            visit(child, f"{prefix}.{child.name}")

    for module, source in package.items():
        visit(ast.parse(source), module)
    return accepted


def stale_keywords(text, accepted):
    """``Name(kw=)`` for each documented call whose name resolves to
    exactly one def that no longer accepts ``kw``."""
    stale = set()
    for code in code_spans(text):
        for name, keywords in keyword_calls(code):
            matches = [qualname for qualname in accepted
                       if qualname == name or qualname.endswith("." + name)]
            if len(matches) != 1 or accepted[matches[0]] is None:
                continue
            stale.update(f"{name}({keyword}=)" for keyword in keywords
                         if keyword not in accepted[matches[0]])
    return sorted(stale)


@pytest.mark.parametrize("path", DOCS,
                         ids=lambda path: path.relative_to(ROOT).as_posix())
def test_documented_keywords_are_accepted(path):
    """A documented call passes only keywords its def still accepts, so a
    deleted parameter cannot leave a stale example behind."""
    stale = stale_keywords(path.read_text(),
                           accepted_keywords(package_sources()))
    assert not stale, f"{path.relative_to(ROOT)}: {stale}"


def test_keyword_rule_flags_a_planted_stale_keyword():
    package = {"pkg.mod": (
        "class Server:\n    def __init__(self, port=0):\n        pass\n"
        "    def run(self, *, budget=None):\n        pass\n"
        "def load(path, limit=None):\n    pass\n"
        "def open_any(**options):\n    pass\n"
        "def twin(a=1):\n    pass\n"
        "class Other:\n    def twin(self, b=1):\n        pass\n")}
    text = ("Call `Server(port=1, timeout=2)` then `Server.run(...,"
            " budget=b)`.\n```python\nload('x', limit=3, max_edges=9)\n"
            "open_any(anything=1)\ntwin(c=1)\nprint(sep='')\n```\n")
    assert stale_keywords(text, accepted_keywords(package)) == [
        "Server(timeout=)", "load(max_edges=)"]
