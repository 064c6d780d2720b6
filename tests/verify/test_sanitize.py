"""Shadow-sanitizer battery: clean-run transparency, planted divergence,
static/dynamic agreement, and the gates that depend on the new passes."""

import pytest

from repro.analyze import analyze_computation
from repro.core.computation import GraphComputation
from repro.core.executor import AnalyticsExecutor, ExecutionMode
from repro.errors import AnalysisError, ConfigError, SanitizerError
from repro.verify.generator import random_churn_collection
from repro.verify.invariants import check_sanitize
from repro.verify.oracles import resolve_algorithms

WORKERS = 2


def small_collection(seed=11):
    return random_churn_collection(seed, num_views=3, num_nodes=10, churn=3)


class DivergentReduce(GraphComputation):
    """Reduce whose emit cardinality tracks per-process closure state:
    forked workers see only their shard's keys, the inline shadow sees
    all of them, so the backends diverge on the very first epoch."""

    name = "divergent-reduce"
    directed = True

    def build(self, dataflow, edges):
        seen = set()

        def logic(key, vals):
            seen.add(key)
            return list(range(len(seen)))

        keyed = edges.flat_map(lambda rec: [(rec[0], rec[1])], name="keyed")
        return keyed.reduce(logic, name="poison")


class UnpicklableCapture(GraphComputation):
    """Reduce closing over state that fails a pickle round-trip — the
    GS-S304 planted defect for the strict-mode refusal test."""

    name = "unpicklable-capture"
    directed = True

    class _Poison:
        def __reduce__(self):
            raise TypeError("deliberately unpicklable")

    def build(self, dataflow, edges):
        poison = self._Poison()

        def logic(key, vals):
            return [len(vals) if poison else 0]

        keyed = edges.flat_map(lambda rec: [(rec[0], rec[1])], name="keyed")
        return keyed.reduce(logic, name="doomed")


class TestCleanRunTransparency:
    def test_sanitized_wcc_run_is_silent_and_byte_identical(self):
        spec = resolve_algorithms(["wcc"])[0]
        mismatch = check_sanitize(small_collection(), spec, {},
                                  workers=WORKERS)
        assert mismatch is None, str(mismatch)


class TestPlantedDivergence:
    def test_caught_at_the_offending_reduce_on_epoch_zero(self):
        executor = AnalyticsExecutor(workers=WORKERS, backend="process",
                                     sanitize=True)
        with pytest.raises(SanitizerError) as excinfo:
            executor.run_on_collection(
                DivergentReduce(), small_collection(),
                mode=ExecutionMode.DIFF_ONLY, keep_outputs=True,
                cost_metric="work")
        error = excinfo.value
        assert error.operator.endswith("/poison#2")
        assert error.timestamp == (0,)
        assert "inline shadow" in error.detail

    def test_static_and_dynamic_checks_name_the_same_operator(self):
        # Satellite contract: GS-S302 flags the kernel statically and the
        # shadow run catches it dynamically — at the same plan address.
        computation = DivergentReduce()
        report = analyze_computation(computation, workers=WORKERS,
                                     concurrency=True)
        hits = [f for f in report.findings if f.rule == "GS-S302"]
        assert hits, report.render()
        static_address = hits[0].operator.split(" udf ")[0]

        executor = AnalyticsExecutor(workers=WORKERS, backend="process",
                                     sanitize=True)
        with pytest.raises(SanitizerError) as excinfo:
            executor.run_on_collection(
                DivergentReduce(), small_collection(),
                mode=ExecutionMode.DIFF_ONLY, keep_outputs=True,
                cost_metric="work")
        assert excinfo.value.operator == static_address


class TestConfiguration:
    def test_sanitize_requires_process_backend(self):
        with pytest.raises(ConfigError) as excinfo:
            AnalyticsExecutor(workers=WORKERS, sanitize=True)
        assert "backend='process'" in str(excinfo.value)

    def test_sanitize_with_process_backend_constructs(self):
        executor = AnalyticsExecutor(workers=WORKERS, backend="process",
                                     sanitize=True)
        assert executor.sanitize


class TestStrictShardGate:
    def test_strict_process_run_refuses_unpicklable_capture(self):
        # The pickle probe refuses the plan at build time — before any
        # epoch — instead of dying mid-superstep with WorkerFailedError.
        executor = AnalyticsExecutor(workers=WORKERS, backend="process",
                                     strict=True)
        with pytest.raises(AnalysisError) as excinfo:
            executor.run_on_collection(
                UnpicklableCapture(), small_collection(),
                mode=ExecutionMode.DIFF_ONLY, cost_metric="work")
        assert "GS-S304" in str(excinfo.value)
        assert "GS-S304" in excinfo.value.payload_context()["rules"]

    def test_strict_inline_run_skips_the_shard_pass(self):
        # The same plan is legal inline: captures never cross a channel.
        executor = AnalyticsExecutor(workers=1, strict=True)
        result = executor.run_on_collection(
            UnpicklableCapture(), small_collection(),
            mode=ExecutionMode.DIFF_ONLY, cost_metric="work")
        assert result is not None


class TestStreamRegisterGate:
    def test_register_rejects_error_severity_plan(self, monkeypatch):
        import repro.stream.engine as engine_mod
        from repro.algorithms.registry import Request

        class RootNegate(GraphComputation):
            name = "root-negate"

            def build(self, dataflow, edges):
                return edges.map(lambda rec: (rec[0], 0),
                                 name="keyed").negate()

        monkeypatch.setattr(Request, "build", lambda self: RootNegate())
        engine = engine_mod.StreamEngine()
        with pytest.raises(AnalysisError) as excinfo:
            engine.register("wcc")
        assert excinfo.value.http_status == 400
        assert "GS-M402" in excinfo.value.payload_context()["rules"]
        assert not engine.queries  # nothing was seeded

    def test_register_accepts_clean_builtin(self):
        from repro.stream.engine import StreamEngine

        engine = StreamEngine()
        signature = engine.register("wcc")
        assert signature in engine.queries


class TestCliFlags:
    def test_stream_pass_warns_on_scc_nested_iterate(self, capsys):
        from repro.cli import main

        assert main(["analyze", "scc", "--stream"]) == 0
        assert "GS-M404" in capsys.readouterr().out

    def test_strict_warnings_promotes_scc_warning_to_failure(self, capsys):
        from repro.cli import main

        assert main(["analyze", "scc", "--stream",
                     "--strict-warnings"]) == 1

    def test_concurrency_pass_is_clean_over_builtins(self, capsys):
        from repro.cli import main

        assert main(["analyze", "--concurrency", "--strict-warnings"]) == 0
        assert "0 error(s)" in capsys.readouterr().out
