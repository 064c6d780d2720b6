"""Borrowed accumulations are never written.

``KeyTrace.accumulate`` hands out its cached sum itself, so no engine
path may mutate what it returns. These tests run every registered
algorithm with the result wrapped in a read-only ``MappingProxyType``: a
write anywhere (a kernel, ``correct_output``, a forked worker) raises
``TypeError``, and the guarded run must reproduce the plain run's outputs
and both metered counters exactly.
"""

import random
import types

import pytest

from repro.core.executor import AnalyticsExecutor, ExecutionMode
from repro.differential.trace import KeyTrace
from repro.verify.generator import random_churn_collection
from repro.verify.oracles import ALGORITHMS, canonical_diff

NODES = list(range(9))


@pytest.fixture
def read_only_accumulations(monkeypatch):
    """Return a function that turns the read-only guard on."""
    real = KeyTrace.accumulate

    def guarded(self, time):
        return types.MappingProxyType(real(self, time))

    return lambda: monkeypatch.setattr(KeyTrace, "accumulate", guarded)


def run(name, backend="inline"):
    spec = ALGORITHMS[name]
    collection = random_churn_collection(seed=19, num_views=5,
                                         num_nodes=len(NODES), churn=5)
    params = spec.sample_params(random.Random(3), NODES)
    executor = AnalyticsExecutor(workers=2, backend=backend)
    result = executor.run_on_collection(
        spec.computation(params), collection,
        mode=ExecutionMode.DIFF_ONLY, keep_outputs=True, cost_metric="work")
    return ([canonical_diff(view.output) for view in result.views],
            result.total_work, result.total_parallel_time)


def test_guard_rejects_writes(read_only_accumulations):
    read_only_accumulations()
    trace = KeyTrace()
    trace.update((0,), {"a": 1})
    with pytest.raises(TypeError):
        trace.accumulate((0,))["a"] = 2


@pytest.mark.parametrize("name", sorted(ALGORITHMS))
def test_inline_run_never_writes_an_accumulation(name,
                                                 read_only_accumulations):
    plain = run(name)
    read_only_accumulations()
    assert run(name) == plain


def test_process_workers_never_write_an_accumulation(
        read_only_accumulations):
    # Workers fork after the guard is installed, so their kernels run
    # against it too.
    plain = run("scc", backend="process")
    read_only_accumulations()
    assert run("scc", backend="process") == plain
