"""The always-on analytics daemon (``python -m repro.cli serve``).

Turns the batch library into a serving system: one process loads graphs
once, keeps differential dataflows (arrangements, traces, EBM-derived
collections) resident in a :class:`ServeSession`, and answers GVDL and
analytics requests over HTTP. Repeated requests are answered from the
result cache; after a mutation, each served view's own resident pays
only its difference, metered.

Request hardening is first-class: per-request deadlines via
:class:`~repro.core.resilience.RunBudget` (503, never a hung
connection), admission control with bounded queueing (429 shedding),
per-algorithm circuit breakers, retry-with-degradation down to
stale-cache serving, and graceful drain with a checkpointed session
journal. See ``docs/serving.md``.
"""

from repro.serve.admission import AdmissionController
from repro.serve.app import ServeApp
from repro.serve.breakers import BreakerBoard, BreakerState, CircuitBreaker
from repro.serve.cache import CacheEntry, CacheStats, ResultCache
from repro.serve.httpd import HttpServer, Request, Response
from repro.serve.lifecycle import ServerLifecycle, ServerState, run_server
from repro.core.resident import ResidentDataflow, multiset_delta
from repro.serve.session import ServeSession

__all__ = [
    "AdmissionController",
    "BreakerBoard",
    "BreakerState",
    "CacheEntry",
    "CacheStats",
    "CircuitBreaker",
    "HttpServer",
    "Request",
    "ResidentDataflow",
    "Response",
    "ResultCache",
    "ServeApp",
    "ServeSession",
    "ServerLifecycle",
    "ServerState",
    "multiset_delta",
    "run_server",
]
