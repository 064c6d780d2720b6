"""End-to-end smoke test for streaming (``python -m repro.stream.smoke``).

Drives a 60-epoch seeded churn stream through the engine and asserts the
contract docs/streaming.md promises, on both execution backends at the
same worker count:

1. **Per-epoch oracle equality** — after every ingested batch, each
   query's on-demand snapshot equals the plain-Python reference on the
   accumulated edge multiset (streaming is never approximate).
2. **Backend byte-identity** — per-epoch output deltas and deterministic
   meter figures (work, parallel time; never wall-clock latency) are
   identical between the inline and process backends.
3. **Incremental work** — the stream's total metered work is well under
   what recomputing every epoch from scratch costs: per-epoch cost
   scales with the batch, not the graph.
4. **Bounded memory** — with compaction on, the capture trace's distinct
   times stay bounded by the compaction window instead of growing with
   the epoch count.
5. **Kill / resume** — a journaled stream killed mid-way and resumed
   produces byte-identical per-epoch results and meter rows versus the
   run that never died.

Exits 0 on success, 1 with a diagnostic on any failed check. Used by
``make stream-smoke`` and the CI ``stream-smoke`` job.
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

from repro.core.resident import ResidentDataflow
from repro.core.resilience import render_output
from repro.stream import StreamEngine, churn_batches
from repro.verify.oracles import describe_map_mismatch, output_map, \
    resolve_algorithms

EPOCHS = 60
WORKERS = 2
SEED = 11
KILL_AT = 27
COMPACT_EVERY = 8
KEEP_EPOCHS = 4
QUERIES = (("wcc", {}), ("degrees", {}))


class SmokeFailure(AssertionError):
    pass


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SmokeFailure(message)


def batches():
    # A graph much larger than the per-epoch churn: incrementality only
    # shows when the batch is small relative to the accumulated state.
    return churn_batches(SEED, EPOCHS, num_nodes=80, churn=3,
                         base_edges=150)


def accumulated_triples(engine: StreamEngine):
    return [triple for triple, mult in sorted(engine.edges.items())
            for _ in range(mult)]


def run_stream(backend: str, journal=None, stop_after=None,
               against_oracle=False):
    """Stream the churn batches; returns (per-epoch rows, scratch work).

    Rows carry everything deterministic: the rendered snapshot and
    output delta per query plus the meter's work figures. With
    ``against_oracle`` every epoch is also cross-checked against the
    plain references and a from-scratch dataflow's work is accumulated
    for the incrementality check.
    """
    specs = {spec.name: spec for spec in resolve_algorithms(
        [name for name, _params in QUERIES])}
    engine = StreamEngine(workers=WORKERS, backend=backend,
                          compact_every=COMPACT_EVERY,
                          keep_epochs=KEEP_EPOCHS)
    rows = []
    scratch_work = 0
    try:
        signatures = {}
        for name, params in QUERIES:
            signatures[engine.register(name, params)] = name
        if journal is not None:
            engine.attach_journal(journal)
        for batch in batches()[:stop_after]:
            payload = engine.ingest(batch)
            row = {"epoch": payload["epoch"]}
            for signature, name in sorted(signatures.items()):
                result = payload["results"][signature]
                snapshot = engine.snapshot(signature)
                row[name] = {
                    "snapshot": render_output(snapshot),
                    "delta": result["output_delta"],
                    "work": result["work"],
                    "parallel_time": result["parallel_time"],
                }
                if against_oracle:
                    spec = specs[name]
                    want = spec.expected(accumulated_triples(engine), {})
                    detail = describe_map_mismatch(output_map(snapshot),
                                                   want)
                    check(detail is None,
                          f"epoch {engine.epoch} {name} snapshot "
                          f"diverged from the reference: {detail}")
                times = engine.queries[signature].resident.capture_times()
                check(times <= COMPACT_EVERY + KEEP_EPOCHS + 1,
                      f"epoch {engine.epoch} {name}: capture holds "
                      f"{times} distinct times; compaction is not "
                      f"bounding memory")
            if against_oracle:
                wcc = next(query for query in engine.queries.values()
                           if query.name == "wcc")
                scratch = ResidentDataflow(wcc.computation, workers=WORKERS)
                try:
                    scratch_work += scratch.advance_by(
                        wcc.input_for(engine.edges)).work.total_work
                finally:
                    scratch.close()
            rows.append(row)
    finally:
        engine.close()
    return rows, scratch_work


def main() -> int:
    try:
        inline_rows, scratch_work = run_stream("inline",
                                               against_oracle=True)
        check(len(inline_rows) == EPOCHS,
              f"expected {EPOCHS} epochs, streamed {len(inline_rows)}")
        streamed_work = sum(row["wcc"]["work"] for row in inline_rows)
        check(streamed_work * 2 < scratch_work,
              f"streaming wcc cost {streamed_work} work vs "
              f"{scratch_work} from scratch; per-epoch cost is not "
              f"scaling with the batch")

        process_rows, _ = run_stream("process")
        check(process_rows == inline_rows,
              "inline and process backends diverged: first differing "
              "epoch " + str(next(
                  (i + 1 for i, (a, b) in
                   enumerate(zip(inline_rows, process_rows)) if a != b),
                  len(inline_rows))))

        with tempfile.TemporaryDirectory(prefix="stream-smoke-") as tmp:
            journal = Path(tmp) / "stream.ckpt"
            interrupted, _ = run_stream("inline", journal=journal,
                                        stop_after=KILL_AT)
            check(len(interrupted) == KILL_AT,
                  f"interrupted run streamed {len(interrupted)} epochs, "
                  f"expected {KILL_AT}")
            engine = StreamEngine.resume(journal)
            resumed_rows = []
            try:
                check(engine.epoch == KILL_AT,
                      f"resume replayed to epoch {engine.epoch}, "
                      f"expected {KILL_AT}")
                signatures = {sig: engine.queries[sig].name
                              for sig in engine.queries}
                for batch in batches()[KILL_AT:]:
                    payload = engine.ingest(batch)
                    row = {"epoch": payload["epoch"]}
                    for signature, name in sorted(signatures.items()):
                        result = payload["results"][signature]
                        row[name] = {
                            "snapshot": render_output(
                                engine.snapshot(signature)),
                            "delta": result["output_delta"],
                            "work": result["work"],
                            "parallel_time": result["parallel_time"],
                        }
                    resumed_rows.append(row)
            finally:
                engine.close()
            check(resumed_rows == inline_rows[KILL_AT:],
                  f"killed-and-resumed stream diverged from the "
                  f"uninterrupted run after epoch {KILL_AT}")
    except SmokeFailure as failure:
        print("stream-smoke FAILED:", failure, file=sys.stderr)
        return 1
    print(f"stream-smoke OK: {EPOCHS} churn epochs, per-epoch oracle "
          f"equality, inline/process byte-identity at {WORKERS} workers, "
          f"incremental work ({streamed_work} streamed vs {scratch_work} "
          f"from scratch), bounded capture traces, kill at epoch "
          f"{KILL_AT} + resume byte-identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
