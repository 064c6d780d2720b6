"""Request handling: routing, the hardening ladder, and error mapping.

Every ``/run`` request walks the same ladder, in order:

1. **Drain gate** — a draining server refuses new work (503).
2. **Admission** — bounded concurrency + bounded queue; past both, the
   request is shed with 429 (:mod:`repro.serve.admission`).
3. **Cache** — a fresh-epoch hit answers immediately; concurrent
   identical requests coalesce on a single-flight lock
   (:mod:`repro.serve.cache`).
4. **Breaker** — an open per-algorithm circuit fails fast with 503, or
   serves a stale cached result when one exists
   (:mod:`repro.serve.breakers`).
5. **Compute** — the resident session runs the request under a
   per-request :class:`~repro.core.resilience.RunBudget` deadline;
   failures retry per the :class:`~repro.core.resilience.RetryPolicy`.
6. **Degrade** — a recompute that still fails serves the stale cached
   result marked ``"stale": true``; only with no stale entry does the
   client see the error, always as a machine-readable payload
   (:meth:`repro.errors.GraphsurgeError.to_payload`) with the error
   class's ``http_status``.

Computation is serialized on one session-wide lock and executed in a
worker thread: resident dataflow state is shared mutable state, and the
byte-identical-to-sequential guarantee the concurrency tests pin down
requires one writer at a time. The event loop stays free to answer
``/healthz`` and shed load meanwhile.
"""

from __future__ import annotations

import asyncio
import json
import time
from typing import List, Optional, Tuple

from repro.algorithms import registry
from repro.core.resilience import RetryPolicy, RunBudget
from repro.errors import (
    BudgetExceededError,
    CircuitOpenError,
    GraphsurgeError,
    RequestError,
    ShuttingDownError,
)
from repro.observe.tracer import TraceSink
from repro.serve.admission import AdmissionController
from repro.serve.breakers import BreakerBoard
from repro.serve.cache import ResultCache
from repro.serve.httpd import Request, Response
from repro.serve.session import ServeSession


def error_response(error: GraphsurgeError) -> Response:
    return Response(status=error.http_status, payload=error.to_payload())


class ServeApp:
    """Routes requests onto one resident :class:`ServeSession`."""

    def __init__(self, session: ServeSession,
                 cache: Optional[ResultCache] = None,
                 admission: Optional[AdmissionController] = None,
                 breakers: Optional[BreakerBoard] = None,
                 retry_policy: Optional[RetryPolicy] = None,
                 deadline_seconds: Optional[float] = None,
                 max_work: Optional[int] = None):
        self.session = session
        self.cache = cache if cache is not None else ResultCache()
        self.admission = (admission if admission is not None
                          else AdmissionController())
        self.breakers = breakers if breakers is not None else BreakerBoard()
        self.retry_policy = retry_policy
        self.deadline_seconds = deadline_seconds
        self.max_work = max_work
        self.started_at = time.monotonic()
        #: Set by the lifecycle layer; the app only reads its state.
        self.lifecycle = None
        self.requests_served = 0
        self._compute_lock = asyncio.Lock()

    # -- dispatch --------------------------------------------------------------

    async def handle(self, request: Request) -> Response:
        routes = {
            ("GET", "/healthz"): self._healthz,
            ("GET", "/readyz"): self._readyz,
            ("GET", "/explain"): self._explain,
            ("POST", "/query"): self._query,
            ("POST", "/run"): self._run,
            ("POST", "/mutate"): self._mutate,
            ("POST", "/stream"): self._stream,
        }
        handler = routes.get((request.method, request.path))
        try:
            if handler is None:
                known_paths = {path for _m, path in routes}
                if request.path in known_paths:
                    raise RequestError(
                        f"method {request.method} not allowed for "
                        f"{request.path}")
                raise RequestError(f"unknown route {request.path}")
            response = await handler(request)
            self.requests_served += 1
            return response
        except GraphsurgeError as error:
            self.requests_served += 1
            return error_response(error)
        except Exception as error:  # never leak a hung connection
            self.requests_served += 1
            return Response(status=500, payload={
                "error": "internal-error",
                "message": f"{type(error).__name__}: {error}",
                "context": {}})

    def _draining(self) -> bool:
        return self.lifecycle is not None and self.lifecycle.draining

    # -- health ----------------------------------------------------------------

    async def _healthz(self, request: Request) -> Response:
        state = (self.lifecycle.state.value if self.lifecycle is not None
                 else "ready")
        return Response(payload={
            "status": "draining" if self._draining() else "ok",
            "state": state,
            "uptime_seconds": round(time.monotonic() - self.started_at, 3),
            "requests_served": self.requests_served,
            "session": self.session.describe(),
            "cache": self.cache.to_payload(),
            "admission": self.admission.to_payload(),
            "breakers": self.breakers.to_payload(),
            "resident_memory": self.session.resident_memory(),
        })

    async def _readyz(self, request: Request) -> Response:
        if self.lifecycle is not None and not self.lifecycle.ready:
            return Response(status=503, payload={
                "ready": False, "state": self.lifecycle.state.value})
        return Response(payload={"ready": True, "state": "ready"})

    # -- GVDL and introspection ------------------------------------------------

    async def _query(self, request: Request) -> Response:
        body = request.json()
        text = body.get("gvdl")
        if not isinstance(text, str) or not text.strip():
            raise RequestError("'gvdl' must be a non-empty string")
        if self._draining():
            raise ShuttingDownError("server is draining; no new work")
        async with self.admission:
            async with self._compute_lock:
                created = await asyncio.get_running_loop().run_in_executor(
                    None, self.session.execute_gvdl, text)
        return Response(payload={"created": created,
                                 "epoch": self.session.epoch})

    async def _explain(self, request: Request) -> Response:
        target = request.query.get("target")
        if not target:
            raise RequestError("'target' query parameter is required")
        text = self.session.gs.explain(target)
        return Response(text=text)

    # -- mutation ---------------------------------------------------------------

    async def _mutate(self, request: Request) -> Response:
        body = request.json()
        graph = body.get("graph")
        if not isinstance(graph, str) or not graph:
            raise RequestError("'graph' must name a loaded base graph")
        add_nodes = self._node_list(body.get("add_nodes", ()))
        add_edges = self._edge_list(body.get("add_edges", ()))
        retract_edges = self._pair_list(body.get("retract_edges", ()))
        if not (add_nodes or add_edges or retract_edges):
            raise RequestError(
                "mutation needs at least one of 'add_nodes', 'add_edges', "
                "'retract_edges'")
        if self._draining():
            raise ShuttingDownError("server is draining; no new work")
        async with self.admission:
            async with self._compute_lock:
                counts = await asyncio.get_running_loop().run_in_executor(
                    None, lambda: self.session.mutate(
                        graph, add_nodes=add_nodes, add_edges=add_edges,
                        retract_edges=retract_edges))
        return Response(payload=counts)

    # -- streaming ---------------------------------------------------------------

    async def _stream(self, request: Request) -> Response:
        """One endpoint, four actions: open / ingest / snapshot / close.

        ``describe`` rides along as a read. Each action funnels through
        the same drain → admission → compute-lock discipline as
        ``/mutate``: stream epochs are state changes, and the single
        compute lock keeps them serialized against analytics requests.
        """
        body = request.json()
        action = body.get("action")
        if action not in ("open", "ingest", "snapshot", "describe",
                         "close"):
            raise RequestError(
                "'action' must be one of 'open', 'ingest', 'snapshot', "
                "'describe', 'close'")
        if action == "open":
            graph = body.get("graph")
            if graph is not None and (not isinstance(graph, str)
                                      or not graph):
                raise RequestError(
                    "'graph' must name a loaded base graph")
            queries = registry.query_entries(body.get("queries", ()),
                                             RequestError)
            if not queries:
                raise RequestError(
                    "'queries' must list at least one "
                    "[computation, params?] pair")
            call = lambda: self.session.stream_open(graph, queries)
        elif action == "ingest":
            appends = self._triple_list(body.get("appends", ()),
                                        "appends")
            retracts = self._triple_list(body.get("retracts", ()),
                                         "retracts")
            call = lambda: self.session.stream_ingest(appends, retracts)
        elif action == "snapshot":
            query = body.get("query")
            if not isinstance(query, str) or not query:
                raise RequestError(
                    "'query' must be a registered stream signature")
            call = lambda: self.session.stream_snapshot(query)
        elif action == "describe":
            call = self.session.stream_describe
        else:
            call = self.session.stream_close
        if self._draining():
            raise ShuttingDownError("server is draining; no new work")
        async with self.admission:
            async with self._compute_lock:
                payload = await asyncio.get_running_loop().run_in_executor(
                    None, call)
        return Response(payload=payload)

    @staticmethod
    def _triple_list(raw, field: str) -> List[Tuple[int, int, int]]:
        out = []
        for item in raw:
            if not isinstance(item, (list, tuple)) or len(item) not in (2, 3):
                raise RequestError(
                    f"'{field}' entries must be [src, dst, weight?], "
                    f"got {item!r}")
            weight = item[2] if len(item) == 3 else 1
            out.append((int(item[0]), int(item[1]), int(weight)))
        return out

    @staticmethod
    def _node_list(raw) -> List[Tuple[int, dict]]:
        out = []
        for item in raw:
            if not isinstance(item, (list, tuple)) or len(item) not in (1, 2):
                raise RequestError(
                    f"'add_nodes' entries must be [id, properties?], "
                    f"got {item!r}")
            props = item[1] if len(item) == 2 else {}
            if not isinstance(props, dict):
                raise RequestError("node properties must be an object")
            out.append((int(item[0]), props))
        return out

    @staticmethod
    def _edge_list(raw) -> List[Tuple[int, int, dict]]:
        out = []
        for item in raw:
            if not isinstance(item, (list, tuple)) or len(item) not in (2, 3):
                raise RequestError(
                    f"'add_edges' entries must be [src, dst, properties?], "
                    f"got {item!r}")
            props = item[2] if len(item) == 3 else {}
            if not isinstance(props, dict):
                raise RequestError("edge properties must be an object")
            out.append((int(item[0]), int(item[1]), props))
        return out

    @staticmethod
    def _pair_list(raw) -> List[Tuple[int, int]]:
        out = []
        for item in raw:
            if not isinstance(item, (list, tuple)) or len(item) != 2:
                raise RequestError(
                    f"'retract_edges' entries must be [src, dst], "
                    f"got {item!r}")
            out.append((int(item[0]), int(item[1])))
        return out

    # -- analytics --------------------------------------------------------------

    async def _run(self, request: Request) -> Response:
        body = request.json()
        name = body.get("computation")
        target = body.get("target")
        if not isinstance(name, str) or not name:
            raise RequestError("'computation' must be a computation name")
        if not isinstance(target, str) or not target:
            raise RequestError(
                "'target' must name a graph, view, or collection")
        params = body.get("params") or {}
        include_output = bool(body.get("include_output", True))
        force_refresh = bool(body.get("force_refresh", False))
        trace = bool(body.get("trace", False))
        wanted = registry.resolve(name, params, RequestError)
        computation = wanted.build()
        key = json.dumps({"signature": wanted.signature, "target": target,
                          "include_output": include_output},
                         sort_keys=True, separators=(",", ":"))
        breaker = self.breakers.get(wanted.entry.name)
        if self._draining():
            raise ShuttingDownError("server is draining; no new work")
        async with self.admission:
            state, entry = self.cache.lookup(key, self.session.epoch)
            if state == "fresh" and not force_refresh and not trace:
                return self._respond(entry.value, cached=True)
            async with self.cache.single_flight(key):
                # Double-check after waiting: a coalesced peer may have
                # filled the entry while this request queued on the lock.
                state, entry = self.cache.lookup(key, self.session.epoch)
                if state == "fresh" and not force_refresh and not trace:
                    return self._respond(entry.value, cached=True)
                self.cache.record_miss()
                try:
                    breaker.allow()
                except CircuitOpenError as circuit_error:
                    if entry is not None:
                        return self._serve_stale(entry, circuit_error)
                    raise
                budget = self._request_budget(body)
                tracer = (TraceSink(self.session.gs.workers) if trace
                          else None)
                try:
                    value = await self._compute(
                        wanted.signature, computation, target,
                        include_output=include_output, budget=budget,
                        tracer=tracer)
                except GraphsurgeError as error:
                    if error.http_status >= 500:
                        # A compute failure; a 4xx is the caller's error.
                        breaker.record_failure()
                    if entry is not None:
                        return self._serve_stale(entry, error)
                    raise
                breaker.record_success()
                self.cache.store(key, value, self.session.epoch)
                return self._respond(value, cached=False)

    def _request_budget(self, body: dict) -> Optional[RunBudget]:
        deadline = body.get("deadline_seconds", self.deadline_seconds)
        max_work = body.get("max_work", self.max_work)
        if deadline is None and max_work is None:
            return None
        return RunBudget(
            max_wall_seconds=float(deadline) if deadline is not None
            else None,
            max_work=int(max_work) if max_work is not None else None)

    async def _compute(self, signature: str, computation, target: str, *,
                       include_output: bool, budget: Optional[RunBudget],
                       tracer: Optional[TraceSink]) -> dict:
        """Run on the session with retries; serialized, off-loop.

        The budget is shared across attempts, so a request deadline bounds
        the *whole* retry ladder, not each attempt. A crossed budget never
        retries (matching the batch executor).
        """
        policy = self.retry_policy
        attempts = 1 + (policy.max_retries if policy is not None else 0)
        loop = asyncio.get_running_loop()
        last_error: Optional[BaseException] = None
        async with self._compute_lock:
            for attempt in range(attempts):
                if attempt and policy is not None:
                    await loop.run_in_executor(
                        None, policy.pause, attempt)
                try:
                    return await loop.run_in_executor(
                        None, lambda: self.session.run(
                            signature, computation, target,
                            include_output=include_output, budget=budget,
                            tracer=tracer))
                except BudgetExceededError:
                    raise
                except GraphsurgeError as error:
                    last_error = error
        assert last_error is not None
        raise last_error

    def _respond(self, value: dict, cached: bool) -> Response:
        payload = dict(value)
        payload["cached"] = cached
        payload["stale"] = False
        return Response(payload=payload)

    def _serve_stale(self, entry, error: GraphsurgeError) -> Response:
        """The last rung: answer from a stale entry, flagged as such."""
        self.cache.record_stale_serve(entry)
        payload = dict(entry.value)
        payload["cached"] = True
        payload["stale"] = True
        payload["served_epoch"] = entry.epoch
        payload["current_epoch"] = self.session.epoch
        payload["degraded"] = error.to_payload()
        return Response(payload=payload)
