"""Satellite 4: the degradation ladder under deterministic fault injection.

A ``FaultPlan`` scripts exactly which dataflow-operator invocations
fail; the tests then walk the ladder rung by rung: retry succeeds →
retries exhaust into a stale-cache serve → no stale entry leaves the
machine-readable error → repeated failures trip the breaker into 503
fail-fast → the breaker half-opens on schedule and a probe closes it.
No test sleeps real wall-clock: retry backoff records into a list and
the breaker runs on a hand-advanced clock.
"""

import asyncio

import pytest

from repro.core.resilience import FaultPlan, FaultSpec, RetryPolicy
from repro.core.system import Graphsurge
from repro.serve.app import ServeApp
from repro.serve.breakers import BreakerBoard, BreakerState
from repro.serve.session import ServeSession

from tests.serve.conftest import call

RUN_WCC = {"computation": "wcc", "target": "Calls"}


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def faulty_app(call_graph, plan: FaultPlan, *, retries: int,
               clock: FakeClock, threshold: int = 2,
               reset_seconds: float = 30.0):
    gs = Graphsurge()
    gs.add_graph(call_graph, "Calls")
    session = ServeSession(gs, fault_plan=plan)
    slept = []
    policy = RetryPolicy(max_retries=retries, backoff_seconds=0.01,
                         jitter_seconds=0.005, jitter_seed=7,
                         sleep=slept.append)
    app = ServeApp(session,
                   breakers=BreakerBoard(failure_threshold=threshold,
                                         reset_seconds=reset_seconds,
                                         clock=clock),
                   retry_policy=policy)
    return app, slept


def fail_from_now_on(plan: FaultPlan, horizon: int = 1_000_000) -> None:
    """Every operator invocation from the current counter on will raise."""
    start = plan._counters["operator"]
    plan.specs.append(
        FaultSpec("operator", tuple(range(start, start + horizon))))


class TestRetryRung:
    def test_first_attempt_fails_retry_succeeds(self, call_graph):
        # Invocation 0 of the operator site raises; the rebuilt dataflow
        # on the retry starts at invocation 1 and completes.
        plan = FaultPlan.single("operator", at=0)
        clock = FakeClock()
        app, slept = faulty_app(call_graph, plan, retries=1, clock=clock)
        response = asyncio.run(call(app, "POST", "/run", RUN_WCC))
        assert response.status == 200
        assert response.payload["cached"] is False
        assert response.payload["stale"] is False
        assert plan.fired == [("operator", 0, "raise")]
        assert len(slept) == 1 and slept[0] > 0  # recorded, not slept
        # The eventual success kept the breaker closed.
        assert app.breakers.get("wcc").state is BreakerState.CLOSED
        assert app.breakers.get("wcc").total_failures == 0

    def test_retry_count_is_bounded(self, call_graph):
        plan = FaultPlan([])
        clock = FakeClock()
        app, slept = faulty_app(call_graph, plan, retries=2, clock=clock)
        fail_from_now_on(plan)
        response = asyncio.run(call(app, "POST", "/run", RUN_WCC))
        assert response.status == 500
        assert response.payload["error"] == "injected-fault"
        assert response.payload["context"]["site"] == "operator"
        assert len(slept) == 2  # exactly max_retries pauses
        assert len(plan.fired) == 3  # initial attempt + two retries


class TestStaleRung:
    def test_exhausted_retries_serve_stale_marked_result(self, call_graph):
        plan = FaultPlan([])
        clock = FakeClock()
        app, _slept = faulty_app(call_graph, plan, retries=1, clock=clock)

        async def scenario():
            good = await call(app, "POST", "/run", RUN_WCC)
            await call(app, "POST", "/mutate", {
                "graph": "Calls",
                "add_edges": [[1, 8, {"duration": 5, "year": 2020}]]})
            fail_from_now_on(plan)
            return good, await call(app, "POST", "/run", RUN_WCC)

        good, degraded = asyncio.run(scenario())
        assert good.status == 200
        assert degraded.status == 200
        assert degraded.payload["stale"] is True
        assert degraded.payload["cached"] is True
        assert degraded.payload["served_epoch"] == 0
        assert degraded.payload["current_epoch"] == 1
        assert degraded.payload["degraded"]["error"] == "injected-fault"
        assert degraded.payload["views"] == good.payload["views"]
        assert app.cache.stats.stale_serves == 1

    def test_budget_exhaustion_never_retries(self, call_graph):
        plan = FaultPlan([])
        clock = FakeClock()
        app, slept = faulty_app(call_graph, plan, retries=3, clock=clock)
        response = asyncio.run(call(app, "POST", "/run",
                                    dict(RUN_WCC, max_work=1)))
        assert response.status == 503
        assert response.payload["error"] == "budget-exhausted"
        assert slept == []  # no retry pauses: deadlines fail at once


class TestBreakerRungs:
    def test_ladder_walks_to_circuit_open_503(self, call_graph):
        plan = FaultPlan([])
        clock = FakeClock()
        app, _slept = faulty_app(call_graph, plan, retries=0, clock=clock,
                                 threshold=2, reset_seconds=30.0)
        fail_from_now_on(plan)

        async def scenario():
            first = await call(app, "POST", "/run", RUN_WCC)
            second = await call(app, "POST", "/run", RUN_WCC)
            fired_before = len(plan.fired)
            tripped = await call(app, "POST", "/run", RUN_WCC)
            return first, second, fired_before, tripped

        first, second, fired_before, tripped = asyncio.run(scenario())
        # Rungs one and two: real failures, reported machine-readably.
        assert first.status == 500
        assert second.status == 500
        breaker = app.breakers.get("wcc")
        assert breaker.state is BreakerState.OPEN
        # Rung three: fail-fast — no compute happened at all.
        assert tripped.status == 503
        assert tripped.payload["error"] == "circuit-open"
        assert tripped.payload["context"]["breaker"] == "wcc"
        assert len(plan.fired) == fired_before

    def test_open_breaker_serves_stale_when_available(self, call_graph):
        plan = FaultPlan([])
        clock = FakeClock()
        app, _slept = faulty_app(call_graph, plan, retries=0, clock=clock,
                                 threshold=1)

        async def scenario():
            await call(app, "POST", "/run", RUN_WCC)
            await call(app, "POST", "/mutate", {
                "graph": "Calls",
                "add_edges": [[1, 8, {"duration": 5, "year": 2020}]]})
            fail_from_now_on(plan)
            tripping = await call(app, "POST", "/run", RUN_WCC)
            assert app.breakers.get("wcc").state is BreakerState.OPEN
            fired_before = len(plan.fired)
            shielded = await call(app, "POST", "/run", RUN_WCC)
            return tripping, fired_before, shielded

        tripping, fired_before, shielded = asyncio.run(scenario())
        # The trip itself degraded to the stale answer...
        assert tripping.status == 200
        assert tripping.payload["stale"] is True
        # ...and so does the breaker-shielded request, without computing.
        assert shielded.status == 200
        assert shielded.payload["stale"] is True
        assert shielded.payload["degraded"]["error"] == "circuit-open"
        assert len(plan.fired) == fired_before

    def test_breaker_half_opens_on_schedule_and_probe_closes(
            self, call_graph):
        plan = FaultPlan([])
        clock = FakeClock()
        app, _slept = faulty_app(call_graph, plan, retries=0, clock=clock,
                                 threshold=1, reset_seconds=30.0)
        fail_from_now_on(plan)

        async def scenario():
            await call(app, "POST", "/run", RUN_WCC)  # trips (threshold 1)
            clock.advance(29.0)
            early = await call(app, "POST", "/run", RUN_WCC)
            clock.advance(1.0)
            plan.specs.clear()  # the fault condition has passed
            probe = await call(app, "POST", "/run", RUN_WCC)
            after = await call(app, "POST", "/run", RUN_WCC)
            return early, probe, after

        early, probe, after = asyncio.run(scenario())
        assert early.status == 503
        assert early.payload["error"] == "circuit-open"
        assert early.payload["context"]["retry_after"] == pytest.approx(1.0)
        # The half-open probe recomputes and closes the breaker.
        assert probe.status == 200
        assert probe.payload["stale"] is False
        breaker = app.breakers.get("wcc")
        assert breaker.state is BreakerState.CLOSED
        assert after.payload["cached"] is True
