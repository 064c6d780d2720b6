"""The HTTP application: routing, caching, budgets, error mapping."""

import asyncio


from repro.serve.app import ServeApp

from tests.serve.conftest import HIST_GVDL, call


def run(coroutine):
    return asyncio.run(coroutine)


RUN_WCC = {"computation": "wcc", "target": "Calls"}


class TestRouting:
    def test_unknown_route_is_400_payload(self, app):
        response = run(call(app, "GET", "/nope"))
        assert response.status == 400
        assert response.payload["error"] == "bad-request"
        assert "unknown route" in response.payload["message"]

    def test_wrong_method_is_400(self, app):
        response = run(call(app, "GET", "/run"))
        assert response.status == 400
        assert "not allowed" in response.payload["message"]

    def test_unexpected_exception_maps_to_500_payload(self, serve_session):
        app = ServeApp(serve_session)

        async def boom(request):
            raise ZeroDivisionError("surprise")

        app._healthz = boom
        response = run(call(app, "GET", "/healthz"))
        assert response.status == 500
        assert response.payload["error"] == "internal-error"
        assert "ZeroDivisionError" in response.payload["message"]


class TestHealth:
    def test_healthz_surfaces_all_subsystems(self, app):
        response = run(call(app, "GET", "/healthz"))
        assert response.status == 200
        payload = response.payload
        assert payload["status"] == "ok"
        assert payload["session"]["graphs"] == ["Calls"]
        assert set(payload["cache"]) >= {"entries", "hits", "fills"}
        assert payload["admission"]["max_inflight"] == 4
        assert payload["breakers"] == {}
        assert payload["resident_memory"]["total_records"] == 0

    def test_readyz_true_without_lifecycle(self, app):
        response = run(call(app, "GET", "/readyz"))
        assert response.status == 200
        assert response.payload["ready"] is True


class TestQueryAndExplain:
    def test_query_creates_collection(self, app):
        response = run(call(app, "POST", "/query", {"gvdl": HIST_GVDL}))
        assert response.status == 200
        assert response.payload == {"created": ["hist"], "epoch": 0}
        assert app.session.describe()["collections"] == ["hist"]

    def test_query_requires_gvdl(self, app):
        response = run(call(app, "POST", "/query", {"gvdl": "  "}))
        assert response.status == 400

    def test_gvdl_syntax_error_maps_to_400(self, app):
        response = run(call(app, "POST", "/query",
                            {"gvdl": "create nonsense;"}))
        assert response.status == 400
        assert response.payload["error"] == "gvdl-syntax"

    def test_duplicate_view_name_maps_to_400(self, app):
        response = run(call(app, "POST", "/query", {
            "gvdl": "create view collection c on Calls "
                    "[a: duration <= 1], [a: duration <= 2]"}))
        assert response.status == 400
        assert "view 'a' more than once" in response.payload["message"]
        assert app.session.describe()["collections"] == []

    def test_explain_returns_text(self, app):
        run(call(app, "POST", "/query", {"gvdl": HIST_GVDL}))
        response = run(call(app, "GET", "/explain",
                            query={"target": "hist"}))
        assert response.status == 200
        assert "hist" in response.text

    def test_explain_requires_target(self, app):
        response = run(call(app, "GET", "/explain"))
        assert response.status == 400


class TestRun:
    def test_cold_then_cached(self, app):
        async def scenario():
            cold = await call(app, "POST", "/run", RUN_WCC)
            warm = await call(app, "POST", "/run", RUN_WCC)
            return cold, warm

        cold, warm = run(scenario())
        assert cold.status == 200
        assert cold.payload["cached"] is False
        assert cold.payload["stale"] is False
        assert cold.payload["total_work"] > 0
        assert warm.payload["cached"] is True
        assert warm.payload["views"] == cold.payload["views"]
        assert app.cache.stats.hits == 1
        assert app.cache.stats.fills == 1

    def test_force_refresh_recomputes(self, app):
        async def scenario():
            await call(app, "POST", "/run", RUN_WCC)
            return await call(app, "POST", "/run",
                              dict(RUN_WCC, force_refresh=True))

        refreshed = run(scenario())
        assert refreshed.payload["cached"] is False
        assert app.cache.stats.fills == 2

    def test_include_output_false_omits_records(self, app):
        response = run(call(app, "POST", "/run",
                            dict(RUN_WCC, include_output=False)))
        view = response.payload["views"][0]
        assert "output" not in view
        assert view["output_size"] > 0

    def test_trace_attaches_profile(self, app):
        response = run(call(app, "POST", "/run", dict(RUN_WCC, trace=True)))
        profile = response.payload["views"][0]["profile"]
        assert profile["critical_path_length"] > 0
        assert profile["top"]

    def test_unknown_computation_is_400(self, app):
        response = run(call(app, "POST", "/run",
                            {"computation": "frobnicate", "target": "Calls"}))
        assert response.status == 400
        assert response.payload["error"] == "bad-request"

    def test_unknown_target_is_404(self, app):
        response = run(call(app, "POST", "/run",
                            {"computation": "wcc", "target": "nope"}))
        assert response.status == 404
        assert response.payload["error"] == "unknown-graph"

    def test_client_errors_do_not_open_the_breaker(self, app):
        """Breakers guard repeated compute failures; a request naming an
        unknown target is the caller's error, not the computation's."""
        for index in range(app.breakers.failure_threshold):
            response = run(call(app, "POST", "/run", {
                "computation": "wcc", "target": f"nosuch-{index}"}))
            assert response.status == 404
        assert run(call(app, "POST", "/run", RUN_WCC)).status == 200

    def test_failed_fills_leave_no_locks(self, app):
        """A fill that raises stores nothing, so it must not leave its
        single-flight lock behind: the lock table stays bounded by the
        entries however many distinct requests fail."""
        async def scenario():
            for index in range(app.cache.capacity + 44):
                await call(app, "POST", "/run", {
                    "computation": "wcc", "target": f"nosuch-{index}"})
            # Concurrent identical failures share one lock and drop it.
            return await asyncio.gather(*(call(app, "POST", "/run", {
                "computation": "wcc", "target": "nosuch"})
                for _ in range(4)))

        responses = run(scenario())
        assert len(app.cache._locks) == 0
        assert len(app.cache) == 0
        assert [r.status for r in responses] == [404] * 4

    def test_client_errors_record_no_breaker_failure(self, app):
        for _ in range(2):
            run(call(app, "POST", "/run",
                     {"computation": "wcc", "target": "nosuch"}))
        breaker = app.breakers.get("wcc")
        assert breaker.total_failures == 0
        assert breaker.consecutive_failures == 0

    def test_compute_failures_still_open_the_breaker(self, app):
        """A 5xx (here a blown work budget) is a compute failure: the
        threshold-th one trips the breaker for every later request."""
        for _ in range(app.breakers.failure_threshold):
            response = run(call(app, "POST", "/run",
                                dict(RUN_WCC, max_work=1)))
            assert response.status == 503
            assert response.payload["error"] == "budget-exhausted"
        tripped = run(call(app, "POST", "/run", RUN_WCC))
        assert tripped.status == 503
        assert tripped.payload["error"] == "circuit-open"

    def test_a_success_after_client_errors_keeps_the_breaker_closed(
            self, app):
        run(call(app, "POST", "/run",
                 {"computation": "wcc", "target": "nosuch"}))
        assert run(call(app, "POST", "/run", RUN_WCC)).status == 200
        breaker = app.breakers.get("wcc")
        assert breaker.total_successes == 1
        assert breaker.times_opened == 0

    def test_successful_fill_keeps_its_lock_for_the_entry(self, app):
        run(call(app, "POST", "/run", RUN_WCC))
        assert len(app.cache) == 1
        assert len(app.cache._locks) == 1

    def test_work_budget_exhaustion_is_503(self, app):
        response = run(call(app, "POST", "/run",
                            dict(RUN_WCC, max_work=1)))
        assert response.status == 503
        assert response.payload["error"] == "budget-exhausted"
        assert response.payload["context"]["limit"] == "work"

    def test_server_default_deadline_applies(self, serve_session):
        app = ServeApp(serve_session, max_work=1)
        response = run(call(app, "POST", "/run", RUN_WCC))
        assert response.status == 503
        assert response.payload["error"] == "budget-exhausted"


class TestMutate:
    def test_mutate_bumps_epoch_and_invalidates(self, app):
        async def scenario():
            await call(app, "POST", "/run", RUN_WCC)
            mutated = await call(app, "POST", "/mutate", {
                "graph": "Calls",
                "add_edges": [[1, 8, {"duration": 5, "year": 2020}]]})
            fresh = await call(app, "POST", "/run", RUN_WCC)
            return mutated, fresh

        mutated, fresh = run(scenario())
        assert mutated.status == 200
        assert mutated.payload["epoch"] == 1
        assert mutated.payload["edges_added"] == 1
        assert fresh.payload["cached"] is False
        assert fresh.payload["epoch"] == 1

    def test_mutate_validates_shapes(self, app):
        bad = [
            {"graph": "Calls"},
            {"graph": "Calls", "add_edges": [[1]]},
            {"graph": "Calls", "add_nodes": [[9, "not-an-object"]]},
            {"graph": "Calls", "retract_edges": [[1, 2, 3]]},
            {"add_edges": [[1, 2]]},
        ]
        for body in bad:
            response = run(call(app, "POST", "/mutate", body))
            assert response.status == 400, body

    def test_mutate_unknown_graph_is_404(self, app):
        response = run(call(app, "POST", "/mutate", {
            "graph": "nope", "add_edges": [[1, 2]]}))
        assert response.status == 404
