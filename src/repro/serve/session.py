"""Resident session state: load once, keep arrangements hot, feed deltas.

The batch library rebuilds graph, EBM, and dataflow state on every
invocation; the daemon keeps them *resident*. A
:class:`ResidentDataflow` holds one built differential dataflow per
computation signature together with the input multiset it has been fed so
far. Answering a request for any view — of any collection, at any epoch —
is then: diff the requested edge multiset against what the dataflow
already holds, feed only that delta as the next epoch, and read the
output. Overlapping view collections across *separate requests* therefore
share arrangements and traces exactly the way views inside one batch run
do (paper §3.2.2), and the work meter proves it: the second, overlapping
request charges only its difference.

:class:`ServeSession` owns the :class:`repro.core.system.Graphsurge`
facade, the resident registry, the session epoch (bumped by mutations),
and the journal of state-changing operations that the lifecycle layer
checkpoints through the PR 1 journal format.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

# build_request_computation and computation_signature are re-exported:
# request handlers and external harnesses import them from here.
from repro.algorithms.registry import (  # noqa: F401
    build_request_computation,
    computation_signature,
)
from repro.core.computation import GraphComputation
from repro.core.resident import ResidentDataflow
from repro.core.resilience import (
    CheckpointState,
    CheckpointWriter,
    FaultPlan,
    RunBudget,
    load_checkpoint,
    render_output,
)
from repro.core.system import Graphsurge
from repro.errors import CheckpointError, RequestError, UnknownGraphError
from repro.graph.edge_stream import EdgeStream, edge_diff_to_input
from repro.graph.store import ViewStore
from repro.observe.profile import profile_view
from repro.observe.tracer import TraceSink
from repro.stream import StreamBatch, StreamEngine


class ServeSession:
    """Everything one daemon instance keeps resident between requests."""

    JOURNAL_KIND = "serve-session"

    def __init__(self, system: Optional[Graphsurge] = None,
                 workers: int = 1,
                 fault_plan: Optional[FaultPlan] = None,
                 backend: Optional[str] = None):
        self.gs = system if system is not None else Graphsurge(
            workers=workers)
        self.workers = self.gs.workers
        self.backend = (backend if backend is not None
                        else getattr(self.gs, "backend", "inline"))
        self.fault_plan = fault_plan
        #: Bumped by every mutation; tags cache entries and responses.
        self.epoch = 0
        self._residents: Dict[str, ResidentDataflow] = {}
        #: At most one streaming session per daemon (see ``/stream``).
        self._stream = None
        #: Ordered journal of state-changing operations (GVDL + mutations)
        #: — what the lifecycle layer checkpoints and restore replays.
        self.journal: List[dict] = []

    # -- state-changing operations -------------------------------------------

    def execute_gvdl(self, text: str) -> List[str]:
        """Run GVDL statements; journals them for checkpoint/restore."""
        created = self.gs.execute(text)
        self.journal.append({"kind": "gvdl", "text": text})
        return created

    def mutate(self, graph: str, add_nodes=(), add_edges=(),
               retract_edges=()) -> dict:
        """Append/retract edges, bump the epoch, re-materialize views.

        The base graph mutates in place; views and collections are
        re-derived by replaying the journaled GVDL against the mutated
        graph (they are *definitions* over the graph, not data in their
        own right). Resident dataflows survive untouched: their input
        state is an edge multiset, so the next request absorbs the
        mutation as one small delta instead of a rebuild.
        """
        counts = self.gs.mutate_graph(
            graph, add_nodes=add_nodes, add_edges=add_edges,
            retract_edges=retract_edges)
        self.journal.append({
            "kind": "mutate", "graph": graph,
            "add_nodes": [[node, props] for node, props in add_nodes],
            "add_edges": [[src, dst, props]
                          for src, dst, props in add_edges],
            "retract_edges": [[src, dst] for src, dst in retract_edges],
        })
        self.epoch += 1
        self._rematerialize_views()
        return dict(counts, epoch=self.epoch)

    def _rematerialize_views(self) -> None:
        self.gs.views = ViewStore()
        for record in self.journal:
            if record["kind"] == "gvdl":
                self.gs.execute(record["text"])

    # -- serving computations -------------------------------------------------

    def resident_for(self, signature: str,
                     computation: GraphComputation) -> ResidentDataflow:
        resident = self._residents.get(signature)
        if resident is None:
            resident = ResidentDataflow(computation, workers=self.workers,
                                        fault_plan=self.fault_plan,
                                        backend=self.backend)
            self._residents[signature] = resident
        return resident

    def run(self, signature: str, computation: GraphComputation,
            target: str, include_output: bool = True,
            budget: Optional[RunBudget] = None,
            tracer: Optional[TraceSink] = None) -> dict:
        """Answer one analytics request from resident state.

        For a collection target every view is fed as a delta off the
        resident dataflow's current input state; for a graph or view
        target the full edge multiset is the (single) target state. The
        payload's per-view ``work`` figures come straight off the meter.
        """
        resident = self.resident_for(signature, computation)
        directed = computation.directed
        views: List[dict] = []
        if self.gs.views.has_collection(target):
            collection = self.gs.views.get_collection(target)
            view_targets = [
                (collection.view_names[index],
                 edge_diff_to_input(collection.full_view_edges(index),
                                    directed=directed))
                for index in range(collection.num_views)]
        else:
            graph = self.gs.resolve(target)
            edges = EdgeStream.from_graph(
                graph, weight=self.gs.weight_property)
            view_targets = [(target, edges.as_input_diff(directed=directed))]
        total_work = 0
        total_parallel = 0
        for view_name, target_input in view_targets:
            mark = tracer.mark() if tracer is not None else 0
            spent = resident.advance_to(target_input, budget=budget,
                                        tracer=tracer).work
            output = resident.output()
            total_work += spent.total_work
            total_parallel += spent.parallel_time
            view_payload = {
                "view": view_name,
                "work": spent.total_work,
                "parallel_time": spent.parallel_time,
                "output_size": len(output),
            }
            if include_output:
                view_payload["output"] = render_output(output)
            if tracer is not None:
                profile = profile_view(tracer, view_name, mark,
                                       tracer.mark())
                view_payload["profile"] = {
                    "critical_path_length": profile.critical_path.length,
                    "top": [[item.operator, item.units]
                            for item in profile.critical_path.top(3)],
                }
            views.append(view_payload)
        return {
            "computation": computation.name,
            "target": target,
            "epoch": self.epoch,
            "views": views,
            "total_work": total_work,
            "total_parallel_time": total_parallel,
        }

    def close(self) -> None:
        """Release every resident dataflow (and its worker cluster).

        Idempotent. The serve lifecycle calls this after the drain so
        process-backend worker children are torn down deterministically
        instead of leaking past the daemon's exit.
        """
        for resident in self._residents.values():
            resident.close()
        self._residents.clear()
        self.stream_close()

    # -- streaming -------------------------------------------------------------

    def _require_stream(self):
        if self._stream is None:
            raise RequestError(
                "no stream session is open; POST /stream with "
                "action 'open' first")
        return self._stream

    def stream_open(self, graph: Optional[str],
                    queries: List[Tuple[str, dict]]) -> dict:
        """Open the daemon's streaming session against a base graph."""
        if self._stream is not None:
            raise RequestError(
                "a stream session is already open; close it first")
        base = self.gs.resolve(graph) if graph else None
        engine = StreamEngine(
            base, workers=self.workers, backend=self.backend,
            weight_property=self.gs.weight_property,
            fault_plan=self.fault_plan)
        try:
            signatures = [engine.register(name, params)
                          for name, params in queries]
        except BaseException:
            engine.close()
            raise
        self._stream = engine
        return {"queries": signatures, "stream": engine.describe()}

    def stream_ingest(self, appends, retracts) -> dict:
        """Absorb one append/retract batch as the next stream epoch."""
        engine = self._require_stream()
        return engine.ingest(
            StreamBatch(appends=appends, retracts=retracts))

    def stream_snapshot(self, signature: str) -> dict:
        engine = self._require_stream()
        if signature not in engine.queries:
            # Accept a bare computation name for parameterless queries.
            named = computation_signature(signature, {})
            if named in engine.queries:
                signature = named
        output = engine.snapshot(signature)
        return {"query": signature, "epoch": engine.epoch,
                "output": render_output(output)}

    def stream_describe(self) -> dict:
        engine = self._require_stream()
        return dict(engine.describe(),
                    resident_memory=engine.resident_memory())

    def stream_close(self) -> dict:
        """Tear down the stream session (idempotent)."""
        engine, self._stream = self._stream, None
        epoch = 0
        if engine is not None:
            epoch = engine.epoch
            engine.close()
        return {"closed": engine is not None, "epoch": epoch}

    # -- introspection ---------------------------------------------------------

    def resident_memory(self) -> Dict[str, Any]:
        """Per-signature stored-record counts (the ``trace_memory`` view)."""
        residents = {}
        total = 0
        for signature, resident in sorted(self._residents.items()):
            counts = resident.record_counts()
            records = sum(counts.values())
            total += records
            residents[signature] = {
                "records": records,
                "epochs_fed": resident.epochs_fed,
                "rebuilds": resident.rebuilds,
                "operators": len(counts),
            }
        payload = {"total_records": total, "residents": residents}
        if self._stream is not None:
            payload["stream"] = self._stream.resident_memory()
        return payload

    def describe(self) -> Dict[str, Any]:
        return {
            "graphs": list(self.gs.graphs.names()),
            "views": list(self.gs.views.view_names()),
            "collections": list(self.gs.views.collection_names()),
            "epoch": self.epoch,
            "journal_entries": len(self.journal),
            "workers": self.workers,
            "backend": self.backend,
        }

    # -- checkpoint / restore --------------------------------------------------

    def checkpoint(self, path) -> int:
        """Write the journal through the PR 1 checkpoint format.

        One checksummed line per journaled operation; a torn final line
        on crash is tolerated by :func:`load_checkpoint` exactly as for
        run checkpoints. Returns the number of records written.
        """
        header = {
            "kind": self.JOURNAL_KIND,
            "graphs": sorted(self.gs.graphs.names()),
            "epoch": self.epoch,
            "num_views": len(self.journal),
        }
        writer = CheckpointWriter.fresh(path, header)
        try:
            for index, record in enumerate(self.journal):
                writer.append_view(dict(record, index=index))
        finally:
            writer.close()
        return len(self.journal)

    def restore(self, path) -> Optional[CheckpointState]:
        """Replay a session checkpoint written by :meth:`checkpoint`.

        The base graphs must already be loaded (the daemon loads the same
        ``--load`` CSVs); the journal replays GVDL and mutations on top,
        reproducing views, collections, and the epoch counter.
        """
        state = load_checkpoint(path)
        if state is None:
            return None
        if state.header.get("kind") != self.JOURNAL_KIND:
            raise CheckpointError(
                f"checkpoint {path} is not a serve-session journal "
                f"(kind={state.header.get('kind')!r})")
        for graph in state.header.get("graphs", ()):
            if graph not in self.gs.graphs:
                raise UnknownGraphError(
                    f"checkpoint {path} expects base graph {graph!r}; "
                    f"load it before restoring")
        for record in state.views:
            if record["kind"] == "gvdl":
                self.execute_gvdl(record["text"])
            elif record["kind"] == "mutate":
                self.mutate(
                    record["graph"],
                    add_nodes=[(node, props)
                               for node, props in record["add_nodes"]],
                    add_edges=[(src, dst, props)
                               for src, dst, props in record["add_edges"]],
                    retract_edges=[(src, dst)
                                   for src, dst in record["retract_edges"]])
            else:
                raise CheckpointError(
                    f"unknown serve journal record kind "
                    f"{record['kind']!r} in {path}")
        return state
