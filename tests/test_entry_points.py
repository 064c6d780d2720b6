"""Every command the Makefile, CI and docs name must exist.

A check lives in tier-1 or in the fuzz battery (``make verify``), not in a
runnable script inside the package. So ``src/repro`` has exactly two
``__main__`` entry points, every ``make <target>`` that CI runs is defined
in the Makefile, and every ``-m repro.…`` module that the Makefile, CI,
README or docs run can be found. Deleting a module while a command still
names it fails here, not in CI or in a reader's shell.
"""

import importlib.util
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CI = ROOT / ".github" / "workflows" / "ci.yml"
MAIN_GUARD = re.compile(r"^if __name__ == ['\"]__main__['\"]:", re.MULTILINE)
MAKE_TARGET = re.compile(r"^([\w-]+):", re.MULTILINE)
MAKE_CALL = re.compile(r"\bmake ([\w-]+)")
RUN_MODULE = re.compile(r"-m (repro(?:\.\w+)*)")


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


def test_rule_flags_a_deleted_module():
    makefile = ("paper:\n\t$(PYTHON) -m repro.bench all\n"
                "serve-smoke:\n\t$(PYTHON) -m repro.serve.smoke\n"
                "x:\n\tpython -m repro.cli fuzz; python -m repro.verify\n")
    assert unrunnable_modules(makefile) == ["repro.serve.smoke",
                                            "repro.verify"]
