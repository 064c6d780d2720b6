"""The process backend's exchange machinery (`repro.timely.cluster`).

Covers backend validation, cluster lifecycle, FIFO update-before-task
ordering, error propagation and liveness under worker death (the
coordinator must raise a typed ``WorkerFailedError`` naming the worker
and superstep instead of hanging).
"""

import pytest

from repro.errors import ConfigError, WorkerFailedError
from repro.timely import cluster as cluster_module
from repro.timely.cluster import BACKENDS, ProcessCluster, validate_backend
from repro.timely.worker import shard_for


class EchoOp:
    """Minimal registry entry exercising all three remote hooks."""

    def __init__(self):
        self.state = {}

    def remote_update(self, payload):
        tag, _time, grouped = payload
        if tag == "boom":
            raise RuntimeError("bad update")
        for key, value in grouped.items():
            self.state[key] = value

    def remote_task(self, payload):
        header, items = payload
        if header == "raise":
            raise ValueError("kernel exploded")
        return {key: ((1,), (header, self.state.get(key), value))
                for key, value in items}

    def remote_stats(self):
        return len(self.state), len(self.state)  # (keys, records)


def key_owned_by(worker, workers):
    """A key the cluster routes to ``worker``."""
    return next(key for key in range(1000)
                if shard_for(key, workers) == worker)


def make_cluster(workers=2, superstep=None):
    return ProcessCluster(workers, {0: EchoOp()}, superstep=superstep)


class TestValidateBackend:
    def test_inline_always_valid(self):
        assert validate_backend("inline", 1) == "inline"
        assert validate_backend("inline", 64) == "inline"

    def test_unknown_backend(self):
        with pytest.raises(ConfigError, match="unknown backend"):
            validate_backend("threads", 4)

    def test_process_requires_two_workers(self):
        with pytest.raises(ConfigError, match="workers >= 2"):
            validate_backend("process", 1)
        with pytest.raises(ConfigError, match="workers >= 2"):
            validate_backend("process", 0)

    def test_process_with_enough_workers(self):
        assert validate_backend("process", 2) == "process"

    def test_backends_constant(self):
        assert BACKENDS == ("inline", "process")

    def test_cluster_itself_rejects_one_worker(self):
        with pytest.raises(ConfigError, match="workers >= 2"):
            ProcessCluster(1, {})


class TestClusterExchange:
    def test_task_round_trip_and_close(self):
        cluster = make_cluster()
        try:
            assert all(proc.is_alive() for proc in cluster._procs)
            replies = cluster.run_tasks(0, "hdr", [("a", 1), ("b", 2)])
            assert replies == {"a": ((1,), ("hdr", None, 1)),
                               "b": ((1,), ("hdr", None, 2))}
        finally:
            cluster.close()
        assert not any(proc.is_alive() for proc in cluster._procs)
        cluster.close()  # idempotent

    def test_updates_land_before_tasks(self):
        cluster = make_cluster()
        try:
            cluster.post_updates(0, "set", (0,), {"a": 10, "b": 20})
            replies = cluster.run_tasks(0, "hdr", [("a", None), ("b", None)])
            assert replies["a"][1] == ("hdr", 10, None)
            assert replies["b"][1] == ("hdr", 20, None)
        finally:
            cluster.close()

    def test_tasks_reach_every_owner(self):
        cluster = make_cluster(workers=3)
        try:
            keys = [key_owned_by(w, 3) for w in range(3)]
            cluster.post_updates(0, "set", (0,), {k: k * 100 for k in keys})
            replies = cluster.run_tasks(0, "h", [(k, None) for k in keys])
            # One key per worker: the reply set covers every key exactly
            # once, and each task ran where its key's update landed.
            assert set(replies) == set(keys)
            for k in keys:
                assert replies[k][1] == ("h", k * 100, None)
        finally:
            cluster.close()

    def test_stats_sum_over_workers(self):
        cluster = make_cluster(workers=2)
        try:
            cluster.post_updates(0, "set", (0,),
                                 {f"k{i}": i for i in range(8)})
            assert cluster.stats() == {0: (8, 8)}
        finally:
            cluster.close()

    def test_task_error_propagates_typed(self):
        cluster = make_cluster()
        try:
            with pytest.raises(ValueError, match="kernel exploded"):
                cluster.run_tasks(0, "raise", [("a", 1)])
            # The channel stays frame-aligned: a later exchange works.
            assert cluster.run_tasks(0, "ok", [("a", 1)])["a"][0] == (1,)
        finally:
            cluster.close()

    def test_buffered_update_error_surfaces_at_next_sync(self):
        cluster = make_cluster()
        try:
            cluster.post_updates(0, "boom", (0,), {"a": 1})
            with pytest.raises(RuntimeError, match="bad update"):
                cluster.run_tasks(0, "hdr", [("a", 1)])
        finally:
            cluster.close()


class TestWorkerDeath:
    def test_workers_reset_inherited_sigterm_handler(self):
        # Fork copies the coordinator's signal dispositions. The serve
        # daemon installs a SIGTERM handler that only pokes an event-loop
        # wakeup fd — a worker inheriting it would swallow the SIGTERM
        # that multiprocessing's exit hook sends to daemon children, and
        # the coordinator would hang forever in the exit-time join().
        # Workers must restore SIG_DFL so SIGTERM actually kills them.
        import os
        import signal

        previous = signal.signal(signal.SIGTERM, lambda *_args: None)
        try:
            cluster = make_cluster(workers=2)
            try:
                # A synchronous exchange guarantees every worker has
                # finished its startup (including the handler reset)
                # before the kill — otherwise a SIGTERM landing between
                # fork and the reset still hits the inherited handler.
                cluster.stats()
                victim = cluster._procs[0]
                os.kill(victim.pid, signal.SIGTERM)
                victim.join(timeout=10.0)
                assert victim.exitcode == -signal.SIGTERM
            finally:
                cluster.close()
        finally:
            signal.signal(signal.SIGTERM, previous)

    def test_killed_worker_raises_worker_failed_not_hang(self, monkeypatch):
        monkeypatch.setattr(cluster_module, "TASK_TIMEOUT", 30.0)
        cluster = make_cluster(workers=2, superstep=lambda: 7)
        try:
            victim = 1
            cluster._procs[victim].kill()
            cluster._procs[victim].join(timeout=10.0)
            with pytest.raises(WorkerFailedError) as excinfo:
                cluster.run_tasks(0, "hdr", [(key_owned_by(0, 2), None),
                                             (key_owned_by(1, 2), None)])
            assert excinfo.value.worker == victim
            assert excinfo.value.superstep == 7
            assert excinfo.value.code == "worker-failed"
        finally:
            cluster.close()

    def test_unresponsive_worker_times_out(self, monkeypatch):
        class SleepOp:
            def remote_task(self, payload):
                import time

                time.sleep(60)

            def remote_update(self, payload):
                pass

            def remote_stats(self):
                return 0, 0

        monkeypatch.setattr(cluster_module, "TASK_TIMEOUT", 1.0)
        cluster = ProcessCluster(2, {0: SleepOp()}, superstep=lambda: 3)
        try:
            with pytest.raises(WorkerFailedError, match="no reply"):
                cluster.run_tasks(0, None, [(0, None)])
        finally:
            cluster.close(timeout=1.0)
