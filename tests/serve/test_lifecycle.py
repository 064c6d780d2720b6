"""Lifecycle: the drain gate, checkpoint-on-exit, a live server loop, and
the real daemon process under SIGTERM."""

import asyncio
import contextlib
import json
import multiprocessing
import os
import signal
import subprocess
import sys
import urllib.request
from pathlib import Path

import pytest

from repro.core.resilience import load_checkpoint
from repro.serve.app import ServeApp
from repro.serve.lifecycle import ServerLifecycle, run_server

from tests.serve.conftest import HIST_GVDL, call

RUN_WCC = {"computation": "wcc", "target": "Calls"}


class TestDrainGate:
    def test_draining_server_refuses_new_work(self, app, tmp_path):
        async def scenario():
            lifecycle = ServerLifecycle(app.session, app.admission,
                                        checkpoint_path=None,
                                        drain_timeout=1.0)
            app.lifecycle = lifecycle
            lifecycle.mark_ready()
            ok = await call(app, "POST", "/run", RUN_WCC)
            lifecycle.request_shutdown("test")
            summary = await lifecycle.shutdown()
            refused_run = await call(app, "POST", "/run", RUN_WCC)
            refused_query = await call(app, "POST", "/query",
                                       {"gvdl": HIST_GVDL})
            refused_mutate = await call(app, "POST", "/mutate", {
                "graph": "Calls", "add_edges": [[1, 8, {
                    "duration": 1, "year": 2020}]]})
            health = await call(app, "GET", "/healthz")
            ready = await call(app, "GET", "/readyz")
            return (ok, summary, refused_run, refused_query,
                    refused_mutate, health, ready)

        (ok, summary, refused_run, refused_query, refused_mutate,
         health, ready) = asyncio.run(scenario())
        assert ok.status == 200
        assert summary["drained"] is True
        assert summary["reason"] == "test"
        for refused in (refused_run, refused_query, refused_mutate):
            assert refused.status == 503
            assert refused.payload["error"] == "shutting-down"
        # Health stays observable through the drain; readiness flips.
        assert health.status == 200
        assert health.payload["status"] == "draining"
        assert ready.status == 503

    def test_shutdown_checkpoints_the_journal(self, app, tmp_path):
        async def scenario():
            lifecycle = ServerLifecycle(
                app.session, app.admission,
                checkpoint_path=tmp_path / "session.ckpt",
                drain_timeout=1.0)
            app.lifecycle = lifecycle
            lifecycle.mark_ready()
            await call(app, "POST", "/query", {"gvdl": HIST_GVDL})
            lifecycle.request_shutdown()
            return await lifecycle.shutdown()

        summary = asyncio.run(scenario())
        assert summary["checkpoint_records"] == 1
        state = load_checkpoint(tmp_path / "session.ckpt")
        assert state.header["kind"] == "serve-session"
        assert state.views[0]["kind"] == "gvdl"

    def test_request_shutdown_is_idempotent(self, app):
        lifecycle = ServerLifecycle(app.session, app.admission)
        lifecycle.request_shutdown("first")
        lifecycle.request_shutdown("second")
        assert lifecycle.shutdown_reason == "first"

    def test_shutdown_closes_resident_dataflows(self, app):
        # With the process backend, residents hold live worker children;
        # the daemon must tear them down on the clean path rather than
        # leak them past exit (or hang multiprocessing's exit-time join).
        async def scenario():
            lifecycle = ServerLifecycle(app.session, app.admission,
                                        drain_timeout=1.0)
            app.lifecycle = lifecycle
            lifecycle.mark_ready()
            await call(app, "POST", "/query", {"gvdl": HIST_GVDL})
            await call(app, "POST", "/run",
                       {"computation": "wcc", "target": "hist"})
            assert app.session._residents
            residents = list(app.session._residents.values())
            lifecycle.request_shutdown()
            await lifecycle.shutdown()
            return residents

        residents = asyncio.run(scenario())
        assert app.session._residents == {}
        assert all(resident.dataflow is None for resident in residents)


class TestRunServerLoop:
    def test_boot_serve_drain_checkpoint(self, app, call_graph, tmp_path):
        """The full daemon loop over a real socket, ending in a restore."""
        lines = []

        async def scenario():
            server_task = asyncio.create_task(run_server(
                app, port=0, checkpoint_path=tmp_path / "session.ckpt",
                drain_timeout=2.0, install_signals=False,
                log=lambda msg, **kw: lines.append(msg)))
            while not any(line.startswith("listening on ")
                          for line in lines):
                await asyncio.sleep(0.01)
            listening = next(line for line in lines
                             if line.startswith("listening on "))
            port = int(listening.rsplit(":", 1)[1])

            async def http(method, path, body=None):
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", port)
                data = json.dumps(body).encode() if body else b""
                head = (f"{method} {path} HTTP/1.1\r\n"
                        f"Content-Length: {len(data)}\r\n\r\n")
                writer.write(head.encode() + data)
                await writer.drain()
                raw = await reader.read()
                writer.close()
                head, _, payload = raw.partition(b"\r\n\r\n")
                return (int(head.split()[1]),
                        json.loads(payload) if payload else None)

            status, health = await http("GET", "/healthz")
            assert status == 200 and health["status"] == "ok"
            status, created = await http("POST", "/query",
                                         {"gvdl": HIST_GVDL})
            assert status == 200 and created["created"] == ["hist"]
            status, result = await http("POST", "/run", RUN_WCC)
            assert status == 200 and result["cached"] is False
            app.lifecycle.request_shutdown("test-complete")
            return await server_task

        summary = asyncio.run(scenario())
        assert summary["drained"] is True
        assert summary["reason"] == "test-complete"
        assert summary["checkpoint_records"] == 1
        # A second boot — a fresh session over the same base graph —
        # restores the journal before serving.
        from repro.core.system import Graphsurge
        from repro.serve.session import ServeSession

        gs = Graphsurge()
        gs.add_graph(call_graph, "Calls")
        rebooted = ServeApp(ServeSession(gs))
        restored_lines = []

        async def reboot():
            task = asyncio.create_task(run_server(
                rebooted, port=0,
                checkpoint_path=tmp_path / "session.ckpt",
                install_signals=False,
                log=lambda msg, **kw: restored_lines.append(msg)))
            while rebooted.lifecycle is None or not rebooted.lifecycle.ready:
                await asyncio.sleep(0.01)
            assert rebooted.session.describe()["collections"] == ["hist"]
            rebooted.lifecycle.request_shutdown()
            return await task

        asyncio.run(reboot())
        assert any("restored session checkpoint" in line
                   for line in restored_lines)


SRC = Path(__file__).resolve().parents[2] / "src"


def proc_stat(pid):
    """``(state, ppid)`` of a process from /proc, or None once it is gone."""
    try:
        text = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    state, ppid = text.rsplit(")", 1)[1].split()[:2]
    return state, int(ppid)


def child_pids(parent):
    return [int(path.name) for path in Path("/proc").iterdir()
            if path.name.isdigit()
            and (proc_stat(path.name) or ("", 0))[1] == parent]


def post(base, path, body):
    request = urllib.request.Request(
        base + path, data=json.dumps(body).encode(), method="POST",
        headers={"Content-Type": "application/json"})
    with urllib.request.urlopen(request, timeout=30) as response:
        return json.loads(response.read())


@pytest.mark.skipif(
    not Path("/proc/self/stat").exists()
    or "fork" not in multiprocessing.get_all_start_methods(),
    reason="needs /proc and the fork start method")
class TestDaemonProcess:
    def test_sigterm_drains_checkpoints_and_reaps_workers(self, tmp_path):
        """``repro.cli serve`` on the process backend, stopped by SIGTERM:
        exit 0 after a clean drain, a whole journal, no worker left."""
        nodes, edges = tmp_path / "nodes.csv", tmp_path / "edges.csv"
        nodes.write_text("id,city:str\n" + "".join(
            f"{i},{'LA' if i % 2 else 'NY'}\n" for i in range(8)))
        edges.write_text("src,dst,year:int\n" + "".join(
            f"{i},{(i + 1) % 8},{2015 + i % 5}\n" for i in range(8)))
        checkpoint = tmp_path / "session.ckpt"
        daemon = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "--load",
             f"g={nodes},{edges}", "serve", "--port", "0",
             "--checkpoint", str(checkpoint),
             "--workers", "2", "--backend", "process"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            env={**os.environ, "PYTHONPATH": str(SRC)})
        workers = []
        try:
            lines = []
            while not (lines and lines[-1].startswith("listening on ")):
                line = daemon.stdout.readline()
                assert line, "daemon exited before listening:\n" + \
                    "".join(lines)
                lines.append(line)
            base = "http://" + lines[-1].split()[-1]
            post(base, "/query", {"gvdl": (
                "create view collection hist on g "
                "[old: year <= 2016], [all: year <= 2030];")})
            assert post(base, "/run", {"computation": "wcc",
                                       "target": "hist"})["total_work"] > 0
            assert post(base, "/mutate", {
                "graph": "g", "add_edges": [[0, 4, {"year": 2016}]],
            })["epoch"] == 1
            workers = child_pids(daemon.pid)
            assert len(workers) >= 2
            daemon.send_signal(signal.SIGTERM)
            daemon.wait(timeout=30)
        finally:
            if daemon.poll() is None:
                daemon.kill()
                daemon.wait()
            # A zombie has exited; only a running worker is a leak. Kill
            # leftovers so they neither outlive the test nor hold the
            # inherited stdout pipe open.
            leftover = [pid for pid in workers
                        if (proc_stat(pid) or ("Z",))[0] != "Z"]
            for pid in leftover:
                with contextlib.suppress(ProcessLookupError):
                    os.kill(pid, signal.SIGKILL)
            output = daemon.stdout.read()
            daemon.stdout.close()
        assert leftover == []
        assert daemon.returncode == 0, output
        assert "shutdown complete: drained=True" in output
        state = load_checkpoint(checkpoint)
        assert state.header["kind"] == "serve-session"
        assert state.header["epoch"] == 1
        assert not state.truncated
        assert [record["kind"] for record in state.views] == \
            ["gvdl", "mutate"]
