"""``stream_churn``: per-epoch maintenance of continuous queries under churn.

Closed loop, one caller: ``StreamEngine.ingest`` is synchronous, so batches
go in back to back and capacity is what is measured. Every 25th epoch the
caller also takes a ``snapshot`` of each query (reads beside writes); those
snapshots are checked against the oracles after the clock stops.
"""

from __future__ import annotations

import json
import statistics
import time
from typing import Dict, List, Tuple

import gen
import oracle
from spans import Tracer, peak_rss_mb, percentile, total

from repro.stream import StreamBatch, StreamEngine

#: Frozen sizes: 8 blocks x 50 nodes x 200 edges behind a hub, then 50
#: batches of 10 retracts + 10 appends. ~0.7 s a rep on the reference box.
SIZES = dict(blocks=8, block_nodes=50, block_edges=200, epochs=50, churn=10)
MIN_REPS = MIN_TRACED_REPS = 4  # x 50 epochs = the 200 samples a p95 needs
SMOKE = dict(blocks=3, block_nodes=12, block_edges=30, epochs=50, churn=3)
QUERIES = (("wcc", {}), ("sssp", {"source": 0}), ("degrees", {}))
SNAPSHOT_EVERY = 25
COMPACT_EVERY = 8  # StreamEngine's default; named for compact_extra_ms

ORACLES = {
    "wcc": oracle.wcc,
    "sssp": lambda edges: oracle.sssp(edges, 0),
    "degrees": oracle.out_degrees,
}


def config(workload: str, smoke: bool) -> dict:
    del workload
    return SMOKE if smoke else SIZES


def make_batches(text: str) -> List[StreamBatch]:
    return [StreamBatch(appends=[tuple(e) for e in b["appends"]],
                        retracts=[tuple(e) for e in b["retracts"]])
            for b in json.loads(text)]


def verify(batches: List[StreamBatch],
           snapshots: Dict[int, Dict[str, dict]]) -> Tuple[int, int]:
    """Replay the batches on the benchmark's own edge set and check every
    snapshot taken; returns (snapshots checked, snapshots wrong)."""
    live: set = set()
    attempted = failed = 0
    for epoch, batch in enumerate(batches):
        live.difference_update(batch.retracts)
        live.update(batch.appends)
        for name, got in snapshots.get(epoch, {}).items():
            attempted += 1
            failed += got != oracle.as_records(ORACLES[name](live))
    return attempted, failed


def rep(cfg: dict, seed: int, workdir, tr: Tracer) -> dict:
    """One rep: register + base batch (set-up), then the timed churn."""
    del workdir  # the batches are handed over in memory, as JSON text
    started = time.perf_counter()
    text = gen.dumps(gen.churn_batches(seed, **cfg))
    batches = make_batches(text)
    engine = StreamEngine()
    try:
        with tr.run(f"stream_churn:{seed}"):
            with tr.span("stream.register", "stream"):
                signatures = {query: engine.register(query, params)
                              for query, params in QUERIES}
            with tr.span("stream.base_batch", "stream"):
                engine.ingest(batches[0])
            setup_s = time.perf_counter() - started

            epoch_ms: List[float] = []
            query_ms: Dict[str, List[float]] = {q: [] for q in signatures}
            snapshot_ms: List[float] = []
            snapshots: Dict[int, Dict[str, dict]] = {}
            work = delta_records = 0
            run_started = time.perf_counter()
            for epoch, batch in enumerate(batches[1:], start=1):
                with tr.span("stream.ingest", "stream"):
                    t0 = time.perf_counter()
                    result = engine.ingest(batch)
                    epoch_ms.append((time.perf_counter() - t0) * 1e3)
                for query, signature in signatures.items():
                    payload = result["results"][signature]
                    query_ms[query].append(payload["latency_s"] * 1e3)
                    work += payload["work"]
                delta_records += batch.size
                if epoch % SNAPSHOT_EVERY == 0:
                    with tr.span("stream.snapshot", "stream"):
                        t0 = time.perf_counter()
                        snapshots[epoch] = {
                            query: engine.snapshot(signature)
                            for query, signature in signatures.items()}
                        snapshot_ms.append(
                            (time.perf_counter() - t0) * 1e3 / len(signatures))
            run_s = time.perf_counter() - run_started
        resident = sum(entry["records"]
                       for entry in engine.resident_memory().values())
    finally:
        engine.close()
    attempted, failed = verify(batches, snapshots)
    return {
        "setup_s": setup_s, "run_s": run_s, "items": delta_records,
        "epoch_ms": epoch_ms, "attempted": attempted + len(epoch_ms),
        "failed": failed, "peak_rss_mb": peak_rss_mb(),
        "digest": gen.digest(text),
        "counts": {"work": work, "resident_records": resident},
        "query_ms": query_ms, "snapshot_ms": snapshot_ms,
    }


def traced_rep(cfg: dict, seed: int, workdir, tr: Tracer) -> dict:
    """The same rep with spans on, then once more with spans off (what the
    spans cost), plus the analyzer gate timed alone."""
    sample = rep(cfg, seed, workdir, tr)
    plain = rep(cfg, seed, workdir, Tracer(enabled=False))
    return dict(sample, gate_s=gate_seconds(),
                trace_overhead=sample["run_s"] / plain["run_s"])


def per_layer(samples: List[dict], tr: Tracer) -> dict:
    """Per-layer values from the traced reps (pooled over reps)."""
    epoch_ms = [ms for s in samples for ms in s["epoch_ms"]]
    spike = [ms for s in samples for i, ms in enumerate(s["epoch_ms"], start=1)
             if i % COMPACT_EVERY == 0]
    calm = [ms for s in samples for i, ms in enumerate(s["epoch_ms"], start=1)
            if i % COMPACT_EVERY]
    own = [ms - sum(s["query_ms"][q][i] for q in s["query_ms"])
           for s in samples for i, ms in enumerate(s["epoch_ms"])]
    reps = len(samples)
    out = {
        "op_ms_p50": statistics.median(epoch_ms),
        "epoch_ms_p50": statistics.median(epoch_ms),
        "epoch_ms_p95": percentile(epoch_ms, 95),
        "stream.register_s": total(tr.spans, "stream.register") / reps,
        "stream.ingest_self_ms_p50": statistics.median(own),
        "stream.work_per_delta": statistics.median(
            s["counts"]["work"] / s["items"] for s in samples),
        "stream.compact_extra_ms":
            statistics.median(spike) - statistics.median(calm),
        "stream.resident_records": statistics.median(
            s["counts"]["resident_records"] for s in samples),
        "stream.snapshot_ms_p50": statistics.median(
            ms for s in samples for ms in s["snapshot_ms"]),
        "differential.work": statistics.median(
            s["counts"]["work"] for s in samples),
        "analyze.gate_s": statistics.median(s["gate_s"] for s in samples),
        "perf.trace_overhead_frac": statistics.median(
            s["trace_overhead"] for s in samples),
    }
    for query in samples[0]["query_ms"]:
        out[f"stream.query_ms_p50.{query}"] = statistics.median(
            ms for s in samples for ms in s["query_ms"][query])
    return out


def gate_seconds() -> float:
    """``analyze.gate_s``: the stream-maintainability gate that ``register``
    runs, timed on its own through the facade."""
    from repro import Graphsurge
    from repro.serve.session import build_request_computation

    gs = Graphsurge()
    started = time.perf_counter()
    for query, params in QUERIES:
        gs.analyze(build_request_computation(query, params), stream=True)
    return time.perf_counter() - started
