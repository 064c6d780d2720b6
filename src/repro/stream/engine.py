"""The streaming engine: continuously maintained queries over a live graph.

Graphsurge's batch path materializes a view collection up front and
executes its difference sets as dataflow epochs. Streaming turns that
inside out: the difference sets *arrive over time* as
:class:`~repro.stream.source.StreamBatch` appends/retracts against a
live property graph, and every registered query keeps one resident
differential dataflow (:class:`repro.core.resident.ResidentDataflow`)
that absorbs each batch as one epoch. Results are reported as per-epoch
output deltas; full snapshots are computed on demand from the capture
trace. Because each epoch's cost is driven by the batch's difference —
not the accumulated graph — maintaining a query over a long stream does
the same total work as the batch executor doing one collection whose
views are the stream's prefixes.

Memory stays bounded: keyed traces hold one entry per loop suffix and
none per epoch, and the one per-epoch log, each query's output capture,
folds through :meth:`repro.core.resident.ResidentDataflow.compact`:
every :data:`COMPACT_EVERY` epochs, capture history older than
:data:`KEEP_EPOCHS` epochs folds into one epoch-0 representative.

Durability uses the PR 1 journal format: the engine appends each
ingested batch to a checkpoint journal; :meth:`StreamEngine.resume`
replays the journal batch by batch — the same epochs, the same
deterministic meter — so a killed and resumed stream is byte-identical
to one that never died.
"""

from __future__ import annotations

import time as _time
from typing import Any, Dict, List, Optional

from repro.algorithms.registry import resolve
from repro.analyze import analyze_computation
from repro.core.resident import ResidentDataflow
from repro.core.resilience import (
    CheckpointWriter,
    FaultPlan,
    load_checkpoint,
    render_output,
)
from repro.differential.multiset import Diff, add_into
from repro.errors import (
    AnalysisError,
    CheckpointError,
    RequestError,
    StreamError,
)
from repro.graph.edge_stream import EdgeStream, edges_to_input
from repro.observe.stream_metrics import EpochMetric, StreamMeter
from repro.stream.source import EdgeTriple, StreamBatch

#: Every this many epochs the engine folds its captures' closed epochs.
COMPACT_EVERY = 8
#: Epochs of exact per-epoch history a fold leaves unfolded.
KEEP_EPOCHS = 4


class ContinuousQuery:
    """One registered algorithm kept continuously maintained."""

    def __init__(self, name: str, params: Dict[str, Any],
                 workers: int, backend: str,
                 fault_plan: Optional[FaultPlan] = None):
        request = resolve(name, params, RequestError)
        self.name = request.entry.name
        #: The request's non-default parameters, as the journal stores them.
        self.params = request.params
        self.signature = request.signature
        self.computation = request.build()
        self.resident = ResidentDataflow(
            self.computation, workers=workers,
            fault_plan=fault_plan, backend=backend)
        #: Output delta absorbed in an epoch that raised for another
        #: query, so never reported; the next reported delta carries it.
        self.owed: Diff = {}

    def input_for(self, triples: Dict[EdgeTriple, int]) -> Diff:
        """Dataflow input records for an edge-triple difference."""
        return edges_to_input(
            (((None,) + triple, mult) for triple, mult in triples.items()),
            directed=self.computation.directed)


class EpochResult:
    """What one query produced for one ingested batch."""

    def __init__(self, epoch: int, query: str, output_delta: Diff,
                 work: int, parallel_time: int, latency_s: float):
        self.epoch = epoch
        self.query = query
        self.output_delta = output_delta
        self.work = work
        self.parallel_time = parallel_time
        self.latency_s = latency_s

    def to_payload(self) -> Dict[str, Any]:
        return {
            "epoch": self.epoch,
            "query": self.query,
            "output_delta": render_output(self.output_delta),
            "work": self.work,
            "parallel_time": self.parallel_time,
            "latency_s": round(self.latency_s, 6),
        }


class StreamEngine:
    """Streaming ingestion against a set of continuous queries.

    ``graph`` seeds the accumulated edge multiset (epoch 0 of every
    resident dataflow); each :meth:`ingest` absorbs one batch as the
    next epoch across all registered queries, atomically — an invalid
    batch (:class:`~repro.errors.StreamError`) changes nothing.
    """

    JOURNAL_KIND = "stream-session"

    def __init__(self, graph=None, workers: int = 1,
                 backend: str = "inline",
                 weight_property: Optional[str] = None,
                 fault_plan: Optional[FaultPlan] = None):
        self.workers = workers
        self.backend = backend
        self.weight_property = weight_property
        self.fault_plan = fault_plan
        self.meter = StreamMeter()
        #: Accumulated (src, dst, weight) multiset — the live edge set.
        self.edges: Dict[EdgeTriple, int] = {}
        self.epoch = 0
        self.queries: Dict[str, ContinuousQuery] = {}
        self._writer: Optional[CheckpointWriter] = None
        self._batches_journaled = 0
        if graph is not None:
            stream = EdgeStream.from_graph(graph, weight=weight_property)
            for _eid, src, dst, w in stream.edges:
                triple = (src, dst, w)
                self.edges[triple] = self.edges.get(triple, 0) + 1

    # -- registration ---------------------------------------------------------

    def register(self, name: str,
                 params: Optional[Dict[str, Any]] = None) -> str:
        """Register a continuous query; returns its signature.

        Another spelling of a registered query (an alias, letter case,
        an explicit default) has its signature and is rejected.

        The resident dataflow is seeded immediately with the current
        accumulated edge multiset as its epoch 0, so a query registered
        mid-stream starts from the live graph, not from empty.

        Registration gates on the static analyzer's stream-maintainability
        pass (``GS-M4xx`` — retraction and compaction hazards; plus the
        shard-safety pass on the process backend): a plan with
        ERROR-severity findings raises
        :class:`repro.errors.AnalysisError` *before* any dataflow is
        seeded, so a continuous query that would leak memory or corrupt
        retractions never starts serving.

        Once a journal is attached the query set is fixed (the journal
        header names it), so registering raises
        :class:`~repro.errors.RequestError`.
        """
        if self._writer is not None:
            raise RequestError(
                "cannot register a query once a journal is attached: "
                "the journal header fixes the query set")
        query = ContinuousQuery(name, params, self.workers,
                                self.backend, self.fault_plan)
        if query.signature in self.queries:
            raise RequestError(
                f"query {query.signature} is already registered")
        report = analyze_computation(
            query.computation, workers=self.workers, stream=True,
            concurrency=(self.backend == "process"))
        if not report.ok:
            raise AnalysisError(report)
        query.resident.advance_by(query.input_for(self.edges))
        self.queries[query.signature] = query
        return query.signature

    # -- ingestion ------------------------------------------------------------

    def _batch_delta(self, batch: StreamBatch) -> Dict[EdgeTriple, int]:
        """Validate a batch against the live edge multiset atomically."""
        delta: Dict[EdgeTriple, int] = {}
        for triple in batch.appends:
            delta[triple] = delta.get(triple, 0) + 1
        for triple in batch.retracts:
            delta[triple] = delta.get(triple, 0) - 1
        for triple, change in delta.items():
            if self.edges.get(triple, 0) + change < 0:
                raise StreamError(
                    f"batch retracts edge {triple} beyond its "
                    f"multiplicity {self.edges.get(triple, 0)} at epoch "
                    f"{self.epoch}")
        return {t: m for t, m in delta.items() if m}

    def ingest(self, batch: StreamBatch) -> Dict[str, Any]:
        """Absorb one batch as the next epoch across every query.

        A query whose epoch fails (an injected fault, a budget breach)
        does not stop the others: every query absorbs the batch, the
        journal records it, and then the first error is raised. The
        failed query's resident rebuilds from the live edges on its next
        feed or read; the other queries' unreported output deltas are
        carried into their next reported ones, so summed deltas still
        equal the snapshot.
        """
        if not self.queries:
            raise RequestError("no continuous queries registered")
        delta = self._batch_delta(batch)
        for triple, change in delta.items():
            count = self.edges.get(triple, 0) + change
            if count:
                self.edges[triple] = count
            else:
                self.edges.pop(triple, None)
        self.epoch += 1
        results: List[EpochResult] = []
        failure: Optional[Exception] = None
        for signature in sorted(self.queries):
            query = self.queries[signature]
            try:
                results.append(self._advance_query(query, delta, batch.size))
            except Exception as error:
                failure = failure or error
        if self._writer is not None:
            self._writer.append_view(dict(
                batch.to_record(), index=self._batches_journaled,
                view_name=f"epoch-{self.epoch}"))
            self._batches_journaled += 1
        self._fold_captures()
        if failure is not None:
            for res in results:
                self.queries[res.query].owed = res.output_delta
            raise failure
        return {
            "epoch": self.epoch,
            "batch_size": batch.size,
            "results": {res.query: res.to_payload() for res in results},
        }

    def _advance_query(self, query: ContinuousQuery,
                       delta: Dict[EdgeTriple, int],
                       batch_size: int) -> EpochResult:
        resident = query.resident
        started = _time.perf_counter()
        feed = query.input_for(delta)
        output_delta, work, parallel_time = {}, 0, 0
        if feed or not resident.built:
            # A resident dropped by a failed epoch (fault injection,
            # budget breach) rebuilds itself from everything absorbed so
            # far and reports a true delta against its last reported
            # output, so summed deltas stay equal to the snapshot.
            output_delta, spent = resident.advance_by(feed)
            work, parallel_time = spent.total_work, spent.parallel_time
        if query.owed:
            output_delta = add_into(query.owed, output_delta)
            query.owed = {}
        latency = _time.perf_counter() - started
        self.meter.record(EpochMetric(
            epoch=self.epoch, query=query.signature,
            batch_size=batch_size,
            delta_records=sum(abs(m) for m in delta.values()),
            output_delta_size=len(output_delta),
            work=work, parallel_time=parallel_time, latency_s=latency))
        return EpochResult(self.epoch, query.signature, output_delta,
                           work, parallel_time, latency)

    def _fold_captures(self) -> None:
        if self.epoch % COMPACT_EVERY:
            return
        for query in self.queries.values():
            query.resident.compact(KEEP_EPOCHS)

    # -- reads ----------------------------------------------------------------

    def snapshot(self, signature: str) -> Diff:
        """The full accumulated output of one query, on demand."""
        query = self.queries.get(signature)
        if query is None:
            raise RequestError(
                f"unknown stream query {signature!r}; registered: "
                f"{sorted(self.queries)}")
        return query.resident.output()

    def describe(self) -> Dict[str, Any]:
        return {
            "epoch": self.epoch,
            "live_edges": sum(self.edges.values()),
            "queries": sorted(self.queries),
            "workers": self.workers,
            "backend": self.backend,
            "meter": self.meter.summary(),
        }

    def resident_memory(self) -> Dict[str, Any]:
        """Stored trace records per query (the bounded-memory figure)."""
        out = {}
        for signature, query in sorted(self.queries.items()):
            out[signature] = {
                "records": sum(query.resident.record_counts().values()),
                "capture_times": query.resident.capture_times(),
            }
        return out

    # -- durability -----------------------------------------------------------

    def attach_journal(self, path) -> None:
        """Start journaling ingested batches to ``path`` (fresh file)."""
        self._writer = CheckpointWriter.fresh(path, self._header())
        self._batches_journaled = 0

    def _header(self) -> dict:
        return {
            "kind": self.JOURNAL_KIND,
            "queries": [[query.name, query.params]
                        for _sig, query in sorted(self.queries.items())],
            "workers": self.workers,
            "backend": self.backend,
            "weight_property": self.weight_property,
        }

    @classmethod
    def resume(cls, path, graph=None,
               backend: Optional[str] = None) -> "StreamEngine":
        """Rebuild a streamed session from its journal, then continue it.

        Registers the header's queries against ``graph`` (the same base
        graph the original engine started from), replays every journaled
        batch as one epoch each — deterministic, so outputs and meter
        figures are byte-identical to the original run's — and reopens
        the journal for appending. A torn final line (killed mid-write)
        is dropped, exactly like run checkpoints. ``backend`` overrides
        the journaled backend (the cross-backend equivalence the fuzzer
        checks makes this safe). A header from an engine that compacted
        on another cadence than :data:`COMPACT_EVERY`/:data:`KEEP_EPOCHS`
        raises :class:`CheckpointError`: replaying it here would change
        its work counters.
        """
        state = load_checkpoint(path)
        if state is None:
            raise CheckpointError(f"no stream journal at {path}")
        if state.header.get("kind") != cls.JOURNAL_KIND:
            raise CheckpointError(
                f"checkpoint {path} is not a stream journal "
                f"(kind={state.header.get('kind')!r})")
        for key, value in (("compact_every", COMPACT_EVERY),
                           ("keep_epochs", KEEP_EPOCHS)):
            if state.header.get(key, value) != value:
                raise CheckpointError(
                    f"stream journal {path} was written with "
                    f"{key}={state.header[key]!r}; this engine compacts "
                    f"with {key}={value}")
        engine = cls(
            graph,
            workers=int(state.header.get("workers", 1)),
            backend=(backend if backend is not None
                     else state.header.get("backend", "inline")),
            weight_property=state.header.get("weight_property"))
        for name, params in state.header.get("queries", ()):
            engine.register(name, params)
        for record in state.views:
            engine.ingest(StreamBatch.from_record(record))
        engine._writer = CheckpointWriter.resume(path, state)
        engine._batches_journaled = len(state.views)
        return engine

    def close(self) -> None:
        """Release every resident dataflow and the journal. Idempotent."""
        for query in self.queries.values():
            query.resident.close()
        writer, self._writer = self._writer, None
        if writer is not None:
            writer.close()
