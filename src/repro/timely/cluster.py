"""Process-parallel worker cluster: exchange channels over forked workers.

The engine's default backend runs all W worker shards in one loop and only
*simulates* parallel time (:mod:`repro.timely.meter`). This module provides
the ``process`` backend: W real ``multiprocessing`` workers, each owning the
keyed state of its shard, connected to the coordinator by pickle-framed
duplex pipes (the exchange channels).

Architecture — coordinator + sharded-state workers
--------------------------------------------------

The coordinator keeps the *driver*: pass scheduling, timestamps, budgets,
fault plans, the :class:`~repro.timely.meter.WorkMeter`, and all linear
(per-record, stateless) operators. Keyed operators run their per-key
kernels on the worker that owns the key (``shard_for(key, W)``); a kernel
returns its outputs **plus the meter events it would have recorded**, and
the coordinator replays those events into the real meter in the original
key order. The one caller of this data plane is the keyed-operator shell
(:mod:`repro.differential.operators.keyed`). This is what makes the two backends observationally identical:
``total_work``, ``parallel_time``, superstep counts, fault-plan firing and
tracer streams are all byte-for-byte the same as the inline loop, because
the exact same sequence of ``meter.record`` calls happens on the
coordinator either way.

Workers are forked (not spawned) so they inherit the dataflow graph —
including user closures, which are not picklable — without any
serialization. The fork happens lazily, at the first superstep, when the
graph is frozen but every trace is still empty; from then on the
coordinator never touches keyed traces, so resident state is genuinely
sharded across processes.

Wire protocol
-------------

Every frame is a pickled 3-tuple ``(kind, op_index, payload)``:

``("update", op, (tag, time, grouped))``
    Fire-and-forget trace update for the keys in ``grouped`` (all owned by
    the receiving worker). No reply; pipes are FIFO, so updates always
    land before any task that depends on them. Errors are buffered and
    surfaced at the next synchronous exchange.
``("task", op, (header, items))``
    Run the operator's per-key kernel for each ``(key, payload)`` in
    ``items``. Replies ``("ok", {key: (events, result)})``.
``("stats", None, None)``
    Replies ``("ok", {op_index: (resident_keys, resident_records)})``.
``("shutdown", None, None)``
    Worker exits its loop.

The per-superstep barrier is implicit in the reply drain: the coordinator
never advances past a keyed pass until every involved worker has answered,
and on error it still drains every outstanding reply (in worker-index
order) before raising, so no stale frame can corrupt a later exchange.

Failure handling
----------------

A worker that dies mid-superstep (or stops answering within
``TASK_TIMEOUT`` seconds) surfaces as
:class:`repro.errors.WorkerFailedError` carrying the worker index and
the superstep at which the coordinator detected it. Detection is a poll
loop with an aliveness check, and ``close()`` bounds its joins, so the
coordinator never hangs. Workers are daemonic as a leak backstop: they
die with the coordinator no matter what.
"""

from __future__ import annotations

import multiprocessing
import time as _time
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.errors import ConfigError, DataflowError, WorkerFailedError
from repro.timely.worker import shard_for

#: Execution backends understood by every ``backend=`` knob in the system.
BACKENDS = ("inline", "process")

#: Seconds the coordinator waits for one worker's reply before it reports
#: the worker failed.
TASK_TIMEOUT = 120.0


def validate_backend(backend: str, workers: int) -> str:
    """Validate a ``(backend, workers)`` combination, returning ``backend``.

    Raises :class:`~repro.errors.ConfigError` (never a bare crash) on
    unknown backend names, on ``backend="process"`` with fewer than two
    workers (one real process would only add pickling overhead — ask for
    the inline backend instead), and on platforms without the ``fork``
    start method (user closures in dataflow graphs are not picklable, so
    the process backend requires fork inheritance).
    """
    if backend not in BACKENDS:
        raise ConfigError(
            f"unknown backend {backend!r}; expected one of "
            f"{', '.join(BACKENDS)}")
    if backend == "process":
        if workers < 2:
            raise ConfigError(
                f"backend='process' requires workers >= 2, got {workers}; "
                f"a single-worker process backend would pay exchange "
                f"serialization for no parallelism — use backend='inline'")
        if "fork" not in multiprocessing.get_all_start_methods():
            raise ConfigError(
                "backend='process' requires the 'fork' start method "
                "(worker processes inherit the dataflow graph, including "
                "unpicklable user closures); this platform offers only "
                f"{multiprocessing.get_all_start_methods()}")
    return backend


def _worker_main(index: int, conn, registry: Dict[int, Any]) -> None:
    """Recv/dispatch loop run inside each forked worker process."""
    import signal

    # Fork inherits the coordinator's signal dispositions. Under the serve
    # daemon that means asyncio's SIGTERM handler — which only pokes the
    # (parent's) wakeup fd — so a terminate() aimed at this worker would be
    # swallowed and multiprocessing's exit-time join() on it would hang
    # the coordinator forever. Restore the default so SIGTERM kills us,
    # and ignore SIGINT: a terminal Ctrl-C signals the whole process
    # group, and teardown order belongs to the coordinator's close().
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    # An async ("update") error cannot be reported when it happens — there
    # is no reply slot — so buffer the first one and surface it at the
    # next synchronous exchange instead of processing further messages
    # against known-bad state.
    failure: Optional[BaseException] = None
    while True:
        try:
            kind, op_index, payload = conn.recv()
        except (EOFError, OSError):
            break
        if kind == "shutdown":
            break
        if kind == "update":
            if failure is None:
                try:
                    registry[op_index].remote_update(payload)
                except BaseException as exc:  # surfaced at next sync point
                    failure = exc
            continue
        if failure is not None:
            reply: Tuple[str, Any] = ("err", failure)
        elif kind == "stats":
            try:
                reply = ("ok", {op: registry[op].remote_stats()
                                for op in registry})
            except BaseException as exc:
                reply = ("err", exc)
        elif kind == "task":
            try:
                reply = ("ok", registry[op_index].remote_task(payload))
            except BaseException as exc:
                reply = ("err", exc)
        else:
            reply = ("err", DataflowError(
                f"worker {index}: unknown message kind {kind!r}"))
        try:
            # Connection.send pickles fully before writing, so a pickling
            # failure here has not corrupted the frame stream and we can
            # still ship a well-formed error.
            conn.send(reply)
        except Exception as exc:
            conn.send(("err", DataflowError(
                f"worker {index}: reply could not be serialized: "
                f"{exc!r}")))
    conn.close()


class ProcessCluster:
    """W forked workers plus the coordinator-side exchange machinery.

    ``registry`` maps a stable operator index to the operator object whose
    ``remote_update`` / ``remote_task`` / ``remote_stats`` methods the
    worker dispatches to. The registry is captured by fork: construct the
    cluster only once the dataflow graph is complete (and, for byte-
    identical sharded state, before any keyed trace holds records).

    ``superstep`` is a zero-argument callable reporting the driver's
    current superstep counter; it is only consulted when building a
    :class:`~repro.errors.WorkerFailedError`.
    """

    def __init__(self, workers: int, registry: Dict[int, Any],
                 superstep: Optional[Callable[[], int]] = None):
        if workers < 2:
            raise ConfigError(
                f"ProcessCluster requires workers >= 2, got {workers}")
        self.workers = workers
        self._superstep = superstep if superstep is not None else lambda: -1
        self._conns: List[Any] = []
        self._procs: List[Any] = []
        self._closed = False
        ctx = multiprocessing.get_context("fork")
        for index in range(workers):
            # Create each pipe immediately before its fork so child i
            # inherits as few sibling descriptors as possible.
            parent_conn, child_conn = ctx.Pipe(duplex=True)
            proc = ctx.Process(target=_worker_main,
                               args=(index, child_conn, registry),
                               daemon=True,
                               name=f"repro-worker-{index}")
            proc.start()
            child_conn.close()  # the child holds its own copy
            self._conns.append(parent_conn)
            self._procs.append(proc)

    # -- low-level exchange ---------------------------------------------------

    def _send(self, worker: int, message: Tuple[str, Any, Any]) -> None:
        try:
            self._conns[worker].send(message)
        except (BrokenPipeError, OSError) as exc:
            raise WorkerFailedError(
                worker, self._superstep(),
                f"exchange channel closed while sending ({exc!r})")

    def _recv(self, worker: int) -> Any:
        """Receive one reply frame, bounded by ``TASK_TIMEOUT``."""
        conn = self._conns[worker]
        proc = self._procs[worker]
        deadline = _time.monotonic() + TASK_TIMEOUT
        while True:
            remaining = deadline - _time.monotonic()
            if remaining <= 0:
                raise WorkerFailedError(
                    worker, self._superstep(),
                    f"no reply within {TASK_TIMEOUT:.0f}s")
            if conn.poll(min(0.05, remaining)):
                break
            if not proc.is_alive():
                # One last poll: the worker may have replied and then
                # exited between our checks.
                if conn.poll(0):
                    break
                raise WorkerFailedError(
                    worker, self._superstep(),
                    f"process exited with code {proc.exitcode}")
        try:
            status, value = conn.recv()
        except (EOFError, OSError) as exc:
            raise WorkerFailedError(
                worker, self._superstep(),
                f"exchange channel closed mid-reply ({exc!r})")
        if status == "err":
            if isinstance(value, BaseException):
                raise value
            raise DataflowError(f"worker {worker} reported: {value!r}")
        return value

    # -- coordinator API ------------------------------------------------------

    def post_updates(self, op_index: int, tag: str, time: Any,
                     grouped: Dict[Any, Any]) -> None:
        """Route a keyed trace update to each owning worker (no reply)."""
        batches: Dict[int, Dict[Any, Any]] = {}
        for key, values in grouped.items():
            batches.setdefault(shard_for(key, self.workers), {})[key] = values
        for worker, sub in batches.items():
            self._send(worker, ("update", op_index, (tag, time, sub)))

    def run_tasks(self, op_index: int, header: Any,
                  items: Iterable[Tuple[Any, Any]]) -> Dict[Any, Any]:
        """Fan a keyed task batch out to its owners; merge the replies.

        ``items`` is an ordered ``[(key, payload)]`` sequence; each key
        goes to worker ``shard_for(key, W)``. Returns the union of the
        per-worker ``{key: (events, result)}`` replies. On error, every
        outstanding reply is drained first and the first failure (in
        worker-index order) is raised, so the exchange channels stay
        frame-aligned for the caller's cleanup path.
        """
        batches: Dict[int, List[Tuple[Any, Any]]] = {}
        for key, payload in items:
            batches.setdefault(shard_for(key, self.workers),
                               []).append((key, payload))
        for worker in sorted(batches):
            self._send(worker, ("task", op_index, (header, batches[worker])))
        merged: Dict[Any, Any] = {}
        error: Optional[BaseException] = None
        for worker in sorted(batches):
            try:
                merged.update(self._recv(worker))
            except BaseException as exc:
                if error is None:
                    error = exc
        if error is not None:
            raise error
        return merged

    def stats(self) -> Dict[int, Tuple[int, int]]:
        """Each registered operator's resident ``(keys, records)``, summed
        over workers (keys are sharded, so per-worker counts are disjoint)."""
        for worker in range(self.workers):
            self._send(worker, ("stats", None, None))
        totals: Dict[int, Tuple[int, int]] = {}
        error: Optional[BaseException] = None
        for worker in range(self.workers):
            try:
                for op_index, (keys, records) in self._recv(worker).items():
                    seen_keys, seen_records = totals.get(op_index, (0, 0))
                    totals[op_index] = (seen_keys + keys,
                                        seen_records + records)
            except BaseException as exc:
                if error is None:
                    error = exc
        if error is not None:
            raise error
        return totals

    # -- lifecycle ------------------------------------------------------------

    def close(self, timeout: float = 5.0) -> None:
        """Shut every worker down; bounded, idempotent, never hangs."""
        if self._closed:
            return
        self._closed = True
        for conn in self._conns:
            try:
                conn.send(("shutdown", None, None))
            except Exception:
                pass  # already dead — terminate below
        deadline = _time.monotonic() + timeout
        for proc in self._procs:
            proc.join(timeout=max(0.1, deadline - _time.monotonic()))
        for proc in self._procs:
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=1.0)
        for conn in self._conns:
            try:
                conn.close()
            except Exception:
                pass

    def __del__(self):
        try:
            self.close(timeout=0.5)
        except Exception:
            pass
