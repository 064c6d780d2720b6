"""The epoch driver: ``build_plan`` and ``ResidentDataflow``.

Every path that runs a computation — batch executor, serve session,
stream engine, analyzer, sanitizer — goes through these two, so their
contract is pinned here once.
"""

import time

import pytest

from repro.algorithms import Wcc
from repro.analyze import analyze_computation
from repro.core.computation import GraphComputation
from repro.core.executor import AnalyticsExecutor
from repro.core.resident import ResidentDataflow, build_plan
from repro.core.resilience import FaultPlan, RunBudget
from repro.core.system import Graphsurge
from repro.errors import (
    BudgetExceededError,
    ComputationError,
    InjectedFault,
)
from repro.graph.edge_stream import EdgeStream
from repro.observe import TraceSink
from repro.serve.session import ServeSession
from repro.stream import StreamEngine


def wcc_input(*edges):
    """Symmetric (src, (dst, w)) input multiset for a WCC dataflow."""
    diff = {}
    for src, dst in edges:
        for rec in ((src, (dst, 1)), (dst, (src, 1))):
            diff[rec] = diff.get(rec, 0) + 1
    return diff


class NonRoot(GraphComputation):
    """``build`` leaks a collection from inside an iterate scope."""

    name = "non-root"

    def build(self, dataflow, edges):
        holder = {}

        def body(inner, scope):
            holder["inner"] = inner
            return inner.map(lambda rec: rec)

        edges.map(lambda rec: (rec[0], 0)).iterate(body)
        return holder["inner"]


class SlowBuild(Wcc):
    def build(self, dataflow, edges):
        time.sleep(0.05)
        return super().build(dataflow, edges)


class TestBuildPlan:
    def test_plan_shape(self):
        dataflow, capture = build_plan(Wcc(), workers=2)
        assert list(dataflow.inputs) == ["edges"]
        assert capture.name == "results"
        assert dataflow.epoch == -1
        assert dataflow.meter.workers == 2

    def test_non_root_result_is_a_computation_error_everywhere(
            self, call_graph):
        """Batch raised ComputationError, serve/stream a bare
        DataflowError from ``capture``; one build, one error."""
        pattern = "non-root: build.. must return a root-scope"
        with pytest.raises(ComputationError, match=pattern):
            build_plan(NonRoot())
        with pytest.raises(ComputationError, match=pattern):
            analyze_computation(NonRoot())
        with pytest.raises(ComputationError, match=pattern):
            ResidentDataflow(NonRoot()).advance_to(wcc_input((1, 2)))
        gs = Graphsurge()
        gs.add_graph(call_graph, "Calls")
        session = ServeSession(gs)
        with pytest.raises(ComputationError, match=pattern):
            session.run("non-root", NonRoot(), "Calls")

    def test_non_root_result_on_stream_register(self, monkeypatch):
        from repro.algorithms.registry import Request

        monkeypatch.setattr(Request, "build", lambda self: NonRoot())
        engine = StreamEngine()
        with pytest.raises(ComputationError, match="non-root"):
            engine.register("wcc")
        assert not engine.queries


class TestWallClockIncludesTheBuild:
    def test_run_on_view_times_the_build_like_scratch_views_do(self):
        """The splitter's scratch cost model is fed wall clocks that
        include the dataflow build; a single-view run must agree."""
        stream = EdgeStream([(0, 0, 1, 1), (1, 1, 2, 1)])
        result = AnalyticsExecutor().run_on_view(SlowBuild(), stream)
        assert result.wall_seconds >= 0.05


class TestFeeding:
    def test_advance_by_always_steps_an_epoch(self):
        resident = ResidentDataflow(Wcc())
        resident.advance_by(wcc_input((1, 2)))
        step = resident.advance_by({})
        assert resident.dataflow.epoch == 1
        assert resident.epochs_fed == 2
        assert step.output_delta == {}
        assert step.work.total_work == 0

    def test_advance_to_is_advance_by_of_the_difference(self):
        stepped = ResidentDataflow(Wcc())
        jumped = ResidentDataflow(Wcc())
        first, second = wcc_input((1, 2)), wcc_input((1, 2), (2, 3))
        stepped.advance_by(first)
        by = stepped.advance_by(wcc_input((2, 3)))
        jumped.advance_to(first)
        to = jumped.advance_to(second)
        assert by == to
        assert stepped.current == jumped.current == second
        assert stepped.output() == jumped.output()

    def test_advance_to_skips_the_step_when_already_there(self):
        resident = ResidentDataflow(Wcc())
        target = wcc_input((1, 2))
        resident.advance_to(target)
        step = resident.advance_to(dict(target))
        assert step.work.total_work == 0
        assert resident.epochs_fed == 1
        assert resident.dataflow.epoch == 0

    def test_budget_applies_to_one_epoch_only(self):
        resident = ResidentDataflow(Wcc())
        with pytest.raises(BudgetExceededError):
            resident.advance_by(wcc_input((1, 2), (2, 3)),
                                budget=RunBudget(max_work=1))
        assert not resident.built
        resident.advance_by({})  # rebuilds, unbudgeted
        assert resident.output() == {(1, 1): 1, (2, 1): 1, (3, 1): 1}

    def test_tracer_sees_exactly_the_traced_epoch(self):
        resident = ResidentDataflow(Wcc(), workers=2)
        resident.advance_by(wcc_input((1, 2)))
        sink = TraceSink(2)
        step = resident.advance_by(wcc_input((2, 3)), tracer=sink)
        assert sink.total_units == step.work.total_work > 0
        assert resident.dataflow.tracer is None
        resident.advance_by(wcc_input((3, 4)))
        assert sink.total_units == step.work.total_work


class TestFailureResetRebuild:
    def test_failure_drops_the_dataflow_but_keeps_the_input(self):
        resident = ResidentDataflow(
            Wcc(), fault_plan=FaultPlan.single("epoch", 1))
        resident.advance_by(wcc_input((1, 2)))
        with pytest.raises(InjectedFault):
            resident.advance_by(wcc_input((2, 3)))
        assert not resident.built
        assert resident.current == wcc_input((1, 2), (2, 3))
        # The next feed rebuilds and absorbs everything as one epoch.
        resident.advance_by(wcc_input((4, 5)))
        assert resident.rebuilds == 2
        assert resident.dataflow.epoch == 0
        assert resident.output() == {
            (1, 1): 1, (2, 1): 1, (3, 1): 1, (4, 4): 1, (5, 4): 1}

    def test_delta_after_a_rebuild_is_against_the_last_reported_output(self):
        resident = ResidentDataflow(
            Wcc(), fault_plan=FaultPlan.single("epoch", 1))
        first = resident.advance_by(wcc_input((1, 2)))
        with pytest.raises(InjectedFault):
            resident.advance_by(wcc_input((2, 3)))
        rebuilt = resident.advance_by(wcc_input((4, 5)))
        assert first.output_delta == {(1, 1): 1, (2, 1): 1}
        assert rebuilt.output_delta == {(3, 1): 1, (4, 4): 1, (5, 4): 1}

    def test_output_rebuilds_a_dropped_dataflow(self):
        resident = ResidentDataflow(
            Wcc(), fault_plan=FaultPlan.single("epoch", 1))
        resident.advance_by(wcc_input((1, 2)))
        with pytest.raises(InjectedFault):
            resident.advance_by(wcc_input((2, 3)))
        assert resident.output() == {(1, 1): 1, (2, 1): 1, (3, 1): 1}
        assert resident.built

    def test_reset_forgets_the_input_too(self):
        resident = ResidentDataflow(Wcc())
        resident.advance_by(wcc_input((1, 2)))
        resident.reset()
        assert not resident.built
        assert resident.current == {}
        step = resident.advance_by(wcc_input((7, 8)))
        assert step.output_delta == {(7, 7): 1, (8, 7): 1}
        assert resident.output() == step.output_delta

    def test_close_is_idempotent(self):
        resident = ResidentDataflow(Wcc(), workers=2, backend="process")
        resident.advance_by(wcc_input((1, 2)))
        resident.close()
        resident.close()
        assert not resident.built
        assert resident.record_counts() == {}
        assert resident.capture_times() == 0
