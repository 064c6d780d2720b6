"""Server lifecycle: readiness, graceful drain, and checkpoint-on-exit.

Shutdown (SIGTERM/SIGINT or a programmatic request) is a strict
sequence:

1. Flip to **draining** — ``/readyz`` turns 503 and every new
   state-changing or compute request is refused with
   :class:`~repro.errors.ShuttingDownError` (503). ``/healthz`` keeps
   answering so orchestrators can watch the drain.
2. **Drain** — wait (bounded) for admitted requests to finish via the
   admission controller's idle event.
3. **Checkpoint** — journal the session's state-changing history through
   the PR 1 checksummed checkpoint format, so the next boot replays GVDL
   and mutations on top of the same ``--load`` graphs.
4. **Stop** — close the listening socket and return a drain summary.
"""

from __future__ import annotations

import asyncio
import enum
import time
from typing import Optional

from repro.serve.admission import AdmissionController
from repro.serve.session import ServeSession


class ServerState(enum.Enum):
    STARTING = "starting"
    READY = "ready"
    DRAINING = "draining"
    STOPPED = "stopped"


class ServerLifecycle:
    """Tracks server state and runs the drain/checkpoint sequence."""

    def __init__(self, session: ServeSession,
                 admission: AdmissionController,
                 checkpoint_path=None,
                 drain_timeout: float = 10.0):
        self.session = session
        self.admission = admission
        self.checkpoint_path = checkpoint_path
        self.drain_timeout = drain_timeout
        self.state = ServerState.STARTING
        self.shutdown_reason: Optional[str] = None
        self._shutdown = asyncio.Event()

    @property
    def ready(self) -> bool:
        return self.state is ServerState.READY

    @property
    def draining(self) -> bool:
        return self.state in (ServerState.DRAINING, ServerState.STOPPED)

    def mark_ready(self) -> None:
        if self.state is ServerState.STARTING:
            self.state = ServerState.READY

    def request_shutdown(self, reason: str = "requested") -> None:
        """Idempotent; safe to call from a signal handler."""
        if self.shutdown_reason is None:
            self.shutdown_reason = reason
        self._shutdown.set()

    async def wait_for_shutdown(self) -> None:
        await self._shutdown.wait()

    async def shutdown(self) -> dict:
        """Drain in-flight work, checkpoint, and report what happened."""
        self.state = ServerState.DRAINING
        started = time.monotonic()
        drained = await self.admission.drained(self.drain_timeout)
        checkpointed = None
        if self.checkpoint_path is not None:
            checkpointed = self.session.checkpoint(self.checkpoint_path)
        # Tear down resident dataflows — with the process backend these
        # hold live worker children that must not outlive the daemon.
        self.session.close()
        self.state = ServerState.STOPPED
        return {
            "reason": self.shutdown_reason or "requested",
            "drained": drained,
            "drain_seconds": round(time.monotonic() - started, 3),
            "checkpoint_records": checkpointed,
            "checkpoint_path": (str(self.checkpoint_path)
                                if self.checkpoint_path is not None
                                else None),
        }


async def run_server(app, host: str = "127.0.0.1", port: int = 0,
                     checkpoint_path=None, drain_timeout: float = 10.0,
                     install_signals: bool = True,
                     log=print) -> dict:
    """Boot the daemon, serve until shutdown, drain, and checkpoint.

    Restores session state from ``checkpoint_path`` when the file exists,
    then keeps journaling to the same path on exit. Prints a parseable
    ``listening on HOST:PORT`` line once the socket is bound (the
    subprocess daemon test and tooling scrape it). Returns the drain
    summary.
    """
    from repro.serve.httpd import HttpServer

    lifecycle = ServerLifecycle(app.session, app.admission,
                                checkpoint_path=checkpoint_path,
                                drain_timeout=drain_timeout)
    app.lifecycle = lifecycle
    if checkpoint_path is not None:
        state = app.session.restore(checkpoint_path)
        if state is not None and log is not None:
            log(f"restored session checkpoint: {state.completed_views} "
                f"record(s), epoch {app.session.epoch}")
    server = HttpServer(app.handle, host=host, port=port)
    await server.start()
    if install_signals:
        import signal

        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(
                    signum, lifecycle.request_shutdown,
                    signal.Signals(signum).name)
            except (NotImplementedError, RuntimeError):
                pass  # platforms without loop signal support
    lifecycle.mark_ready()
    if log is not None:
        log(f"listening on {server.host}:{server.port}", flush=True)
    await lifecycle.wait_for_shutdown()
    if log is not None:
        log(f"shutting down ({lifecycle.shutdown_reason}): draining...",
            flush=True)
    summary = await lifecycle.shutdown()
    await server.stop()
    if log is not None:
        checkpoint_note = (
            f", checkpointed {summary['checkpoint_records']} record(s) to "
            f"{summary['checkpoint_path']}"
            if summary["checkpoint_records"] is not None else "")
        log(f"shutdown complete: drained={summary['drained']} in "
            f"{summary['drain_seconds']}s{checkpoint_note}", flush=True)
    return summary
