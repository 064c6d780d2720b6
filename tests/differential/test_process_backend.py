"""Inline vs process backend equality for the differential engine.

The process backend's contract (docs/parallel.md): byte-identical
``total_work``/``parallel_time`` counters, superstep counts, outputs,
and trace-memory reports versus the inline default, for every operator
mix. These tests drive both backends over joins, arranged joins,
reduces, and iterate scopes — including retractions — plus the executor
and serving layers on top.
"""

import pytest

from repro.core.executor import AnalyticsExecutor, ExecutionMode
from repro.core.view_collection import collection_from_diffs
from repro.differential import Dataflow
from repro.differential.debug import (
    check_consistency,
    check_consolidated,
    operator_record_counts,
)
from repro.errors import ConfigError, DataflowError

WORKERS = 3


def snapshot(df, captures):
    return (
        df.meter.total_work,
        df.meter.parallel_time,
        df.meter.supersteps,
        tuple(tuple(sorted((t, tuple(sorted(d.items())))
                           for t, d in cap.trace.entries.items()))
              for cap in captures),
    )


def run_join_reduce(backend):
    df = Dataflow(workers=WORKERS, backend=backend)
    a = df.new_input("a")
    b = df.new_input("b")
    joined = df.capture(a.join(b), "joined")
    counted = df.capture(
        a.reduce(lambda key, acc: [sum(acc.values())], name="count"),
        "counted")
    try:
        df.step({"a": {(k % 5, k): 1 for k in range(40)},
                 "b": {(k % 5, -k): 1 for k in range(20)}})
        df.step({"a": {(0, 0): -1, (6 % 5, 99): 1},
                 "b": {(1, -1): -1}})
        stats = dict(operator_record_counts(df))
        return snapshot(df, [joined, counted]), stats
    finally:
        df.close()


def run_arranged_iterate(backend):
    df = Dataflow(workers=WORKERS, backend=backend)
    edges = df.new_input("edges")
    labels = df.new_input("labels")
    arranged = edges.arrange_by_key("edges.arr")
    probe = df.capture(labels.join_arranged(arranged), "probe")

    def body(inner, scope):
        e = scope.enter(edges)
        seed = scope.enter(labels)
        return inner.join(
            e, lambda u, lbl, v: (v, lbl)).concat(seed).min_by_key()

    out = df.capture(labels.iterate(body), "out")
    path = {}
    n = 24
    for u in range(n - 1):
        path[(u, u + 1)] = 1
    try:
        df.step({"edges": path,
                 "labels": {(v, v): 1 for v in range(n)}})
        # Cut the chain in the middle, then restore it: retractions must
        # cascade identically on both backends.
        df.step({"edges": {(n // 2, n // 2 + 1): -1}})
        df.step({"edges": {(n // 2, n // 2 + 1): 1}})
        stats = dict(operator_record_counts(df))
        return snapshot(df, [probe, out]), stats
    finally:
        df.close()


class TestDataflowEquality:
    def test_join_and_reduce(self):
        assert run_join_reduce("inline") == run_join_reduce("process")

    def test_arranged_join_and_iterate_with_retraction(self):
        assert run_arranged_iterate("inline") == \
            run_arranged_iterate("process")

    def test_trace_memory_reported_from_workers(self):
        _snap, stats = run_join_reduce("process")
        # Keyed traces live on the workers post-fork; the report must
        # still see their records (summed over the cluster).
        assert stats and any(count > 0 for count in stats.values())

    def test_close_is_idempotent_and_cluster_lifecycle(self):
        df = Dataflow(workers=2, backend="process")
        a = df.new_input("a")
        df.capture(a.reduce(lambda k, acc: [len(acc)]), "out")
        assert df.cluster is None  # forked lazily, at the first step
        df.step({"a": {(1, 1): 1, (2, 2): 1}})
        cluster = df.cluster
        assert cluster is not None
        assert all(proc.is_alive() for proc in cluster._procs)
        df.close()
        assert df.cluster is None
        assert not any(proc.is_alive() for proc in cluster._procs)
        df.close()

    def test_invalid_combinations_rejected(self):
        with pytest.raises(ConfigError, match="workers >= 2"):
            Dataflow(workers=1, backend="process")
        with pytest.raises(ConfigError, match="unknown backend"):
            Dataflow(workers=4, backend="threads")


class TestDebugReadsWorkerState:
    """Keyed traces live on the workers after the fork; the debug tools
    must report them (or refuse), never scan the coordinator's empty
    copies."""

    @staticmethod
    def stepped(backend):
        df = Dataflow(workers=2, backend=backend)
        a = df.new_input("a")
        b = df.new_input("b")
        df.capture(a.reduce(lambda key, acc: [sum(acc.values())],
                            name="deg"), "deg")
        df.capture(a.join(b, name="ab"), "ab")
        df.step({"a": {(k, k): 1 for k in range(50)},
                 "b": {(k, -k): 1 for k in range(0, 50, 2)}})
        return df

    def test_record_counts_identical_across_backends(self):
        inline, process = self.stepped("inline"), self.stepped("process")
        try:
            want = operator_record_counts(inline)
            assert want == {"deg": 100, "ab": 75}
            assert operator_record_counts(process) == want
        finally:
            process.close()

    def test_checkers_refuse_on_a_live_cluster(self):
        df = self.stepped("process")
        try:
            with pytest.raises(DataflowError, match="backend='process'"):
                check_consolidated(df)
            with pytest.raises(DataflowError, match="backend='process'"):
                check_consistency(df)
        finally:
            df.close()


def churn_collection():
    base = {(u, u, u + 1, 1): 1 for u in range(12)}
    return collection_from_diffs("pb-churn", [
        dict(base),
        {(3, 3, 4, 1): -1, (3, 3, 9, 1): 1},
        {(3, 3, 4, 1): 1, (0, 0, 1, 1): -1},
    ])


class TestExecutorEquality:
    @staticmethod
    def run(backend):
        from repro.algorithms import Wcc

        executor = AnalyticsExecutor(workers=WORKERS, backend=backend)
        result = executor.run_on_collection(
            Wcc(), churn_collection(), mode=ExecutionMode.DIFF_ONLY,
            keep_outputs=True, cost_metric="work")
        return (result.total_work, result.total_parallel_time,
                [sorted(view.output.items()) for view in result.views],
                result.trace_memory)

    def test_collection_run_identical(self):
        assert self.run("inline") == self.run("process")

    def test_executor_rejects_invalid_backend(self):
        with pytest.raises(ConfigError):
            AnalyticsExecutor(workers=1, backend="process")


class TestServeSessionBackend:
    def test_resident_dataflow_uses_session_backend(self):
        from repro.core.system import Graphsurge
        from repro.graph.property_graph import PropertyGraph
        from repro.serve.session import (
            ServeSession,
            build_request_computation,
            computation_signature,
        )

        signature = computation_signature("wcc", {})

        def build_session(backend):
            gs = Graphsurge(workers=2, backend=backend)
            graph = PropertyGraph("g")
            for v in range(6):
                graph.add_node(v, {})
            for u in range(5):
                graph.add_edge(u, u + 1, {})
            gs.add_graph(graph, "g")
            return ServeSession(system=gs)

        def drain(session):
            for resident in session._residents.values():
                resident.close()

        session = build_session("process")
        assert session.describe()["backend"] == "process"
        inline = build_session("inline")
        try:
            first = session.run(
                signature, build_request_computation("wcc", {}), "g")
            # A second request reuses the resident (and its live forked
            # cluster) instead of rebuilding it.
            second = session.run(
                signature, build_request_computation("wcc", {}), "g")
            want = inline.run(
                signature, build_request_computation("wcc", {}), "g")
            assert first["views"][0]["output"] == \
                want["views"][0]["output"]
            assert (first["total_work"], first["total_parallel_time"]) == \
                (want["total_work"], want["total_parallel_time"])
            assert second["views"][0]["output"] == \
                first["views"][0]["output"]
        finally:
            drain(session)
            drain(inline)
