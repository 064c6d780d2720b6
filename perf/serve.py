"""``serve_mixed``: the daemon over HTTP, cached reads beside mutations.

Closed loop, one client, one connection at a time: the next request goes
out when the previous response is in. (Two concurrent clients were tried
when the workload was designed and rejected: interleaving moved the
hit/miss split and the request rate 15 % run to run.) The daemon is booted
per rep as a subprocess (``repro.cli --load ... serve --port 0``) and is
always reaped, also when the rep raises.
"""

from __future__ import annotations

import http.client
import json
import os
import select
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import gen
import oracle
from spans import Tracer, peak_rss_mb

#: Frozen sizes: 16 blocks x 20 nodes x 80 edges with ``year`` in
#: 2010..2019; 3 blocks of 12 /run + 1 /mutate (+5 edges): 4 misses then
#: 8 hits a block, so hits are the clear majority and the median request
#: is a hit, not the cliff between hits and misses. ~0.9 s a rep.
GRAPH = dict(blocks=16, block_nodes=20, block_edges=80, span=10,
             prop="year", origin=2010)
SCRIPT = dict(requests=39, mutate_every=13, edges_per_mutation=5)
MIN_REPS = 3         # the best of fewer reps is one rep's luck
MIN_TRACED_REPS = 1  # per-layer figures carry no bound; --seconds decides
SMOKE = dict(graph=dict(GRAPH, blocks=3, block_nodes=10, block_edges=25),
             script=dict(SCRIPT, requests=26))
HIST = (("old", 2013), ("mid", 2016), ("all", 2030))
GVDL = "create view collection hist on g " + ", ".join(
    f"[{name}: year <= {bound}]" for name, bound in HIST)
BOOT_TIMEOUT = 60.0
SHUTDOWN_TIMEOUT = 30.0
SRC = str(Path(__file__).resolve().parent.parent / "src")


def config(workload: str, smoke: bool) -> dict:
    del workload
    return SMOKE if smoke else dict(graph=GRAPH, script=SCRIPT)


class Daemon:
    """``repro.cli serve`` as a child process. The constructor returns once
    the daemon listens; ``stop`` terminates it and waits for it to end."""

    def __init__(self, nodes: Path, edges: Path):
        env = dict(os.environ, PYTHONPATH=SRC, PYTHONUNBUFFERED="1")
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "--load",
             f"g={nodes},{edges}", "serve", "--port", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, env=env)
        try:
            self.host, self.port = self._await_listening()
        except BaseException:
            self.stop()
            raise

    def _await_listening(self) -> Tuple[str, int]:
        deadline = time.monotonic() + BOOT_TIMEOUT
        seen: List[str] = []
        stdout = self.process.stdout
        while time.monotonic() < deadline:
            ready, _, _ = select.select([stdout], [], [], 0.5)
            if not ready:
                if self.process.poll() is not None:
                    break
                continue
            line = stdout.readline().decode()
            if not line:
                break
            seen.append(line)
            if line.startswith("listening on "):
                host, port = line.split("listening on ", 1)[1].strip() \
                    .rsplit(":", 1)
                return host, int(port)
        raise RuntimeError(f"daemon did not start listening: {seen}")

    def stop(self) -> None:
        process = self.process
        if process.poll() is None:
            process.send_signal(signal.SIGTERM)
            try:
                process.wait(timeout=SHUTDOWN_TIMEOUT)
            except subprocess.TimeoutExpired:
                process.kill()
        process.wait()
        process.stdout.close()

    def request(self, method: str, path: str,
                body: Optional[dict] = None) -> Tuple[int, dict]:
        connection = http.client.HTTPConnection(self.host, self.port,
                                                timeout=120)
        try:
            data = json.dumps(body).encode() if body is not None else None
            connection.request(method, path, body=data, headers={
                "Content-Type": "application/json"} if data else {})
            response = connection.getresponse()
            return response.status, json.loads(response.read())
        finally:
            connection.close()


def decode(value):
    """Undo the daemon's JSON encoding of tuples (``{"t": [...]}``)."""
    if isinstance(value, dict):
        return tuple(decode(item) for item in value["t"])
    return value


def expected_outputs(edges: List[Tuple[int, int, int]]) -> Dict[str, list]:
    """Per request shape, the oracle's per-view outputs on ``edges``."""
    hist = [[(u, v) for u, v, year in edges if year <= bound]
            for _name, bound in HIST]
    everything = [(u, v) for u, v, _year in edges]
    return {
        gen.dumps(gen.RUN_SHAPES[0]): [oracle.wcc(everything)],
        gen.dumps(gen.RUN_SHAPES[1]): [oracle.wcc(view) for view in hist],
        gen.dumps(gen.RUN_SHAPES[2]): [oracle.bfs(everything, 0)],
        gen.dumps(gen.RUN_SHAPES[3]): [oracle.out_degrees(view)
                                       for view in hist],
    }


def classify(entry: dict, payload: dict) -> str:
    if entry["path"] == "/mutate":
        return "mutate"
    if payload.get("cached"):
        return "hit"
    return "miss_coll" if entry["body"]["target"] == "hist" else "miss_view"


def rep(cfg: dict, seed: int, workdir: Path, tr: Tracer) -> dict:
    """One rep: boot + ``/query`` (set-up), the timed script, then one
    untimed ``include_output`` ``/run`` per shape against the oracle."""
    started = time.perf_counter()
    graph = cfg["graph"]
    nodes_csv, edges_csv, rows = gen.temporal_graph(seed, **graph)
    script = gen.request_script(
        seed, graph["blocks"], graph["block_nodes"],
        taken=[(u, v) for u, v, _y in rows],
        span=graph["span"], origin=graph["origin"], **cfg["script"])
    script_text = gen.dumps(script)
    (workdir / "nodes.csv").write_text(nodes_csv)
    (workdir / "edges.csv").write_text(edges_csv)
    per_request: List[Tuple[str, float]] = []  # (class, latency ms)
    failed = rejected = miss_work = 0
    with tr.run(f"serve_mixed:{seed}"):
        with tr.span("serve.boot", "serve"):
            daemon = Daemon(workdir / "nodes.csv", workdir / "edges.csv")
        try:
            boot_s = time.perf_counter() - started
            with tr.span("serve.query", "serve"):
                status, _created = daemon.request("POST", "/query",
                                                  {"gvdl": GVDL})
            if status != 200:
                raise RuntimeError(f"/query answered {status}")
            setup_s = time.perf_counter() - started

            run_started = time.perf_counter()
            for entry in json.loads(script_text):
                with tr.span("serve.request", "serve"):
                    t0 = time.perf_counter()
                    status, payload = daemon.request("POST", entry["path"],
                                                     entry["body"])
                    ms = (time.perf_counter() - t0) * 1e3
                if status != 200:
                    failed += 1
                    rejected += status in (429, 503)
                    per_request.append(("failed", ms))
                    continue
                kind = classify(entry, payload)
                per_request.append((kind, ms))
                if kind.startswith("miss"):
                    miss_work += payload["total_work"]
            run_s = time.perf_counter() - run_started

            # The daemon's own tally, before the output checks add to it.
            _status, health = daemon.request("GET", "/healthz")
            edges = rows + [
                (u, v, props["year"]) for entry in script
                if entry["path"] == "/mutate"
                for u, v, props in entry["body"]["add_edges"]]
            checked = 0
            for shape, views in expected_outputs(edges).items():
                status, payload = daemon.request(
                    "POST", "/run", dict(json.loads(shape),
                                         include_output=True))
                got = ([{decode(record): mult
                         for record, mult in view["output"]}
                        for view in payload["views"]]
                       if status == 200 else None)
                checked += 1
                failed += got != [oracle.as_records(v) for v in views]
            rss = peak_rss_mb(daemon.process.pid)
        finally:
            daemon.stop()
    return {
        "setup_s": setup_s, "run_s": run_s, "items": len(script),
        "attempted": len(script) + checked, "failed": failed,
        "peak_rss_mb": rss, "digest": gen.digest(nodes_csv, edges_csv,
                                                 GVDL, script_text),
        "counts": {"hits": health["cache"]["hits"],
                   "misses": health["cache"]["misses"],
                   "miss_work": miss_work, "rejected": rejected},
        "per_request": per_request, "boot_s": boot_s, "script": script,
    }


def session_replay(sample: dict, workdir: Path) -> Tuple[float, float, list]:
    """The same script on an in-process ``ServeSession``: time inside
    ``run`` and ``mutate`` with HTTP, JSON and the event loop taken away.
    Returns (run seconds, mutate seconds, per-request seconds)."""
    from repro import Graphsurge
    from repro.serve import ServeSession
    from repro.serve.session import (
        build_request_computation, computation_signature)

    gs = Graphsurge()
    gs.load_graph("g", workdir / "nodes.csv", workdir / "edges.csv")
    session = ServeSession(system=gs)
    try:
        session.execute_gvdl(GVDL)
        cached: Dict[str, int] = {}
        run_s = mutate_s = 0.0
        per_request: List[float] = []
        for entry in sample["script"]:
            body = entry["body"]
            t0 = time.perf_counter()
            if entry["path"] == "/mutate":
                session.mutate("g", add_edges=[
                    (u, v, props) for u, v, props in body["add_edges"]])
                spent = time.perf_counter() - t0
                mutate_s += spent
            else:
                key = gen.dumps(body)
                spent = 0.0
                if cached.get(key) != session.epoch:
                    params = body.get("params", {})
                    session.run(
                        computation_signature(body["computation"], params),
                        build_request_computation(body["computation"],
                                                  params),
                        body["target"], include_output=False)
                    cached[key] = session.epoch
                    spent = time.perf_counter() - t0
                    run_s += spent
            per_request.append(spent)
    finally:
        session.close()
    return run_s, mutate_s, per_request


def traced_rep(cfg: dict, seed: int, workdir: Path, tr: Tracer) -> dict:
    """The same rep with spans on, its script replayed in-process, and the
    rep once more with spans off (what the spans cost)."""
    sample = rep(cfg, seed, workdir, tr)
    with tr.run(f"serve_session:{seed}"):
        with tr.span("serve.session_replay", "serve"):
            sample["session"] = session_replay(sample, workdir)
    plain = rep(cfg, seed, workdir, Tracer(enabled=False))
    sample["trace_overhead"] = sample["run_s"] / plain["run_s"]
    return sample


def per_layer(samples: List[dict], tr: Tracer) -> dict:
    del tr
    pooled: Dict[str, List[float]] = {}
    for sample in samples:
        for kind, ms in sample["per_request"]:
            pooled.setdefault(kind, []).append(ms)
    overhead = [ms - session_s * 1e3
                for s in samples
                for (_kind, ms), session_s in zip(s["per_request"],
                                                  s["session"][2])]
    med = statistics.median
    return {
        "op_ms_p50": med(ms for kind, group in pooled.items()
                         if kind != "failed" for ms in group),
        "hit_ms_p50": med(pooled["hit"]),
        "miss_view_ms_p50": med(pooled["miss_view"]),
        "miss_coll_ms_p50": med(pooled["miss_coll"]),
        "mutate_ms_p50": med(pooled["mutate"]),
        "serve.boot_s": med(s["boot_s"] for s in samples),
        "serve.session_run_s": med(s["session"][0] for s in samples),
        "serve.session_mutate_s": med(s["session"][1] for s in samples),
        "serve.http_overhead_ms": med(overhead),
        "serve.cache_hit_frac": med(
            s["counts"]["hits"] / (s["counts"]["hits"]
                                   + s["counts"]["misses"])
            for s in samples),
        "serve.miss_work": med(s["counts"]["miss_work"] for s in samples),
        "serve.rejected": sum(s["counts"]["rejected"] for s in samples),
        "differential.work": med(s["counts"]["miss_work"] for s in samples),
        "perf.trace_overhead_frac": med(s["trace_overhead"] for s in samples),
    }
