"""One epoch driver, three callers: the batch executor, the serve session
and the stream engine feed the same views through the same
``ResidentDataflow`` and must agree on outputs and metered cost — plus
the import layering that keeps it that way."""

import ast
from pathlib import Path

import pytest

import repro
from repro.algorithms.registry import (
    build_request_computation,
    computation_signature,
)
from repro.core.executor import AnalyticsExecutor, ExecutionMode
from repro.core.resilience import render_output
from repro.core.system import Graphsurge
from repro.serve.session import ServeSession
from repro.stream import StreamEngine, batches_from_collection
from repro.verify.generator import random_churn_collection

WORKERS = 2


def through_executor(collection, name, backend):
    result = AnalyticsExecutor(workers=WORKERS, backend=backend) \
        .run_on_collection(
            build_request_computation(name, {}), collection,
            mode=ExecutionMode.DIFF_ONLY, keep_outputs=True,
            cost_metric="work")
    return [(view.view_name, view.work, view.parallel_time,
             render_output(view.output)) for view in result.views]


def through_serve(collection, name, backend):
    gs = Graphsurge(workers=WORKERS, backend=backend)
    gs.views.add_collection(collection.name, collection)
    session = ServeSession(system=gs)
    try:
        payload = session.run(computation_signature(name, {}),
                              build_request_computation(name, {}),
                              collection.name)
    finally:
        session.close()
    return [(view["view"], view["work"], view["parallel_time"],
             view["output"]) for view in payload["views"]]


def through_stream(collection, name, backend):
    engine = StreamEngine(workers=WORKERS, backend=backend)
    rows = []
    try:
        signature = engine.register(name)
        for view_name, batch in zip(collection.view_names,
                                    batches_from_collection(collection)):
            result = engine.ingest(batch)["results"][signature]
            rows.append((view_name, result["work"],
                         result["parallel_time"],
                         render_output(engine.snapshot(signature))))
    finally:
        engine.close()
    return rows


@pytest.mark.parametrize("backend", ["inline", "process"])
@pytest.mark.parametrize("name", ["wcc", "pagerank"])
def test_three_drivers_charge_identical_per_view_work(name, backend):
    collection = random_churn_collection(5)
    batch = through_executor(collection, name, backend)
    assert len(batch) == collection.num_views
    assert sum(work for _view, work, _time, _output in batch) > 0
    assert through_serve(collection, name, backend) == batch
    assert through_stream(collection, name, backend) == batch


# -- layering -----------------------------------------------------------------

#: package prefix -> package prefixes it must never import, at module
#: scope or deferred inside a function.
FORBIDDEN = {
    "repro.stream": ("repro.serve",),
    "repro.core": ("repro.serve", "repro.stream"),
    "repro.differential": ("repro.serve", "repro.stream"),
    "repro.timely": ("repro.serve", "repro.stream"),
}

#: The Graphsurge facade is the composition root: ``Graphsurge.stream()``
#: hands out a StreamEngine, so it alone may reach up (deferred).
ALLOWED = {("repro.core.system", "repro.stream")}


def imported_modules(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module
            for alias in node.names:
                yield f"{node.module}.{alias.name}"


def within(module, package):
    return module == package or module.startswith(package + ".")


def test_lower_layers_never_import_the_drivers_above_them():
    root = Path(repro.__file__).parent
    violations = []
    for path in sorted(root.rglob("*.py")):
        module = ".".join(("repro",) + path.relative_to(root)
                          .with_suffix("").parts)
        module = module.removesuffix(".__init__")
        for package, banned in FORBIDDEN.items():
            if not within(module, package):
                continue
            for target in imported_modules(ast.parse(path.read_text())):
                for upper in banned:
                    if within(target, upper) and \
                            (module, upper) not in ALLOWED:
                        violations.append(f"{module} imports {target}")
    assert not violations, "\n".join(sorted(set(violations)))


# -- the keyed-operator shell -------------------------------------------------

#: Touching the cluster's data plane: reading ``<x>.cluster`` or calling
#: its ``run_tasks`` / ``post_updates``.
CLUSTER_ATTRS = {"cluster", "run_tasks", "post_updates"}

#: The only modules that may: the shell (the one dispatch site), the
#: dataflow that owns the cluster's lifecycle, the debug tools that ask
#: it for stats, and the cluster itself.
CLUSTER_AWARE = {
    "repro.differential.operators.keyed",
    "repro.differential.dataflow",
    "repro.differential.debug",
    "repro.timely.cluster",
}

SHELL = "repro.differential.operators.keyed"


def test_only_the_keyed_shell_places_state_and_dispatches_kernels():
    """A sixth keyed operator must build on the shell, not regrow a
    private ``if cluster is None`` fork or its own ``remote_*`` hooks."""
    root = Path(repro.__file__).parent
    violations = []
    for path in sorted(root.rglob("*.py")):
        module = ".".join(("repro",) + path.relative_to(root)
                          .with_suffix("").parts)
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and \
                    node.attr in CLUSTER_ATTRS and \
                    module not in CLUSTER_AWARE:
                violations.append(
                    f"{module}:{node.lineno} touches .{node.attr}")
            if isinstance(node, ast.FunctionDef) and \
                    node.name.startswith("remote_") and module != SHELL:
                violations.append(
                    f"{module}:{node.lineno} defines {node.name}")
    assert not violations, "\n".join(violations)


# -- one engine, one creation path --------------------------------------------

#: Opening a superstep frame is what an engine does. Besides the meter and
#: the tracer tee that define ``begin_step``, only the differential driver
#: and its iterate scope may; sharded creation loops charge their tallies
#: through ``WorkMeter.charge_step``.
OPENS_SUPERSTEPS = {
    "repro.timely.meter",
    "repro.observe.tracer",
    "repro.differential.dataflow",
    "repro.differential.operators.iterate",
}


def called_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            yield func.attr if isinstance(func, ast.Attribute) else \
                getattr(func, "id", None)


def test_no_second_batch_engine_and_one_collection_constructor():
    """The TimelyDataflow batch layer is gone; it must not regrow as a
    module, as an import, or as another ``begin_step`` driver. Collection
    size columns are derived in one place
    (``MaterializedCollection.from_diffs``)."""
    package = Path(repro.__file__).parent
    repo = package.parents[1]
    assert not (package / "timely" / "dataflow.py").exists()
    assert not (package / "timely" / "dataflow").exists()
    step_openers, size_derivers, importers = set(), [], []
    for top in (package, repo / "benchmarks", repo / "examples"):
        for path in sorted(top.rglob("*.py")):
            tree = ast.parse(path.read_text())
            if any(within(target or "", "repro.timely.dataflow")
                   for target in imported_modules(tree)):
                importers.append(str(path))
            if top is not package:
                continue
            module = ".".join(("repro",) + path.relative_to(package)
                              .with_suffix("").parts)
            names = list(called_names(tree))
            if "begin_step" in names:
                step_openers.add(module)
            size_derivers += [module] * names.count("view_sizes_from_diffs")
    assert not importers, importers
    assert step_openers <= OPENS_SUPERSTEPS, \
        sorted(step_openers - OPENS_SUPERSTEPS)
    assert size_derivers == ["repro.core.view_collection"], size_derivers
