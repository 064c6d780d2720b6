"""Resident session state: load once, keep arrangements hot, feed deltas.

The batch library rebuilds graph, EBM, and dataflow state on every
invocation; the daemon keeps them *resident*. A
:class:`ResidentDataflow` holds one built differential dataflow together
with the input multiset it has been fed so far, and the session keeps one
per served view: per computation signature, graph or named-view target,
and view of a collection target. Answering a request is then: diff each
view's edge multiset against what its resident already holds, feed only
that delta as the next epoch, and read the output — so after a mutation
each view pays only its own delta (paper §3.2.2), never the distance
between unrelated targets. Views that have no resident yet are filled in
collection order by one *walker* per request, which moves from view to
view the way the batch executor's dataflow does: a fresh session's first
request charges exactly the executor's per-view work.

:class:`ServeSession` owns the :class:`repro.core.system.Graphsurge`
facade, the resident registry, the session epoch (bumped by mutations),
and the journal of state-changing operations that the lifecycle layer
checkpoints through the PR 1 journal format.
"""

from __future__ import annotations

import contextlib
from typing import Any, Dict, List, Optional, Tuple

# build_request_computation and computation_signature are re-exported:
# external harnesses import them from here.
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
from repro.differential.multiset import Diff, add_into
from repro.errors import CheckpointError, RequestError, UnknownGraphError
from repro.graph.edge_stream import EdgeStream
from repro.graph.store import ViewStore
from repro.observe.profile import profile_view
from repro.observe.tracer import TraceSink
from repro.stream import StreamBatch, StreamEngine


class ServeSession:
    """Everything one daemon instance keeps resident between requests."""

    JOURNAL_KIND = "serve-session"

    def __init__(self, system: Graphsurge,
                 fault_plan: Optional[FaultPlan] = None):
        #: The facade; its ``workers`` and ``backend`` are the session's.
        self.gs = system
        self.fault_plan = fault_plan
        #: Bumped by every mutation; tags cache entries and responses.
        self.epoch = 0
        #: ``(signature, target, view)`` -> the resident serving that view;
        #: ``view`` is ``None`` for a graph or named-view target.
        self._residents: Dict[Tuple[str, str, Optional[str]],
                              ResidentDataflow] = {}
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
        mutation as one small delta instead of a rebuild. All or nothing:
        if applying the change or re-deriving any view fails, the graph
        and views are rolled back and the error re-raised, with epoch and
        journal untouched.
        """
        base = self.gs.graphs.get(graph)
        before, views = base.snapshot(), self.gs.views
        try:
            counts = self.gs.mutate_graph(
                graph, add_nodes=add_nodes, add_edges=add_edges,
                retract_edges=retract_edges)
            self.gs.views = ViewStore()
            for record in self.journal:
                if record["kind"] == "gvdl":
                    self.gs.execute(record["text"])
        except BaseException:
            base.restore(before)
            self.gs.views = views
            raise
        self.journal.append({
            "kind": "mutate", "graph": graph,
            "add_nodes": [[node, props] for node, props in add_nodes],
            "add_edges": [[src, dst, props]
                          for src, dst, props in add_edges],
            "retract_edges": [[src, dst] for src, dst in retract_edges],
        })
        self.epoch += 1
        return dict(counts, epoch=self.epoch)

    # -- serving computations -------------------------------------------------

    def _view_inputs(self, target: str,
                     directed: bool) -> List[Tuple[Optional[str], Diff]]:
        """``(view, input multiset)`` per view of ``target``, in order.

        A collection's inputs are one running sum over its difference
        stream; a graph or named view is one input, under view ``None``.
        """
        if not self.gs.views.has_collection(target):
            edges = EdgeStream.from_graph(self.gs.resolve(target),
                                          weight=self.gs.weight_property)
            return [(None, edges.as_input_diff(directed=directed))]
        collection = self.gs.views.get_collection(target)
        running: Diff = {}
        inputs = []
        for index, view in enumerate(collection.view_names):
            add_into(running, collection.input_diff_for_view(
                index, directed=directed))
            inputs.append((view, dict(running)))
        return inputs

    def run(self, signature: str, computation: GraphComputation,
            target: str, include_output: bool = True,
            budget: Optional[RunBudget] = None,
            tracer: Optional[TraceSink] = None) -> dict:
        """Answer one analytics request from resident state.

        Every view is stepped to its input by its own resident, so after a
        mutation each pays only its own delta. Views without one yet are
        filled, in collection order, by this request's *walker*: the first
        starts a fresh resident, each later one takes it over (its key
        moves along). The payload's per-view ``work`` figures come straight
        off the meter.
        """
        walker = None
        views: List[dict] = []
        total_work = 0
        total_parallel = 0
        for view, target_input in self._view_inputs(target,
                                                     computation.directed):
            key = (signature, target, view)
            resident = self._residents.get(key)
            if resident is None:
                if walker is None:
                    resident = ResidentDataflow(
                        computation, workers=self.gs.workers,
                        fault_plan=self.fault_plan, backend=self.gs.backend)
                else:
                    resident = self._residents.pop(walker)
                self._residents[key] = resident
                walker = key
            view_name = view or target
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
            base, workers=self.gs.workers, backend=self.gs.backend,
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
            # Accept a bare computation name (any spelling) for a query
            # registered with its defaults.
            with contextlib.suppress(RequestError):
                signature = computation_signature(signature)
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
        """Per-signature stored-record counts (the ``trace_memory`` view),
        summed over the signature's residents (``targets`` counts them,
        one per served target view)."""
        residents: Dict[str, Dict[str, int]] = {}
        for (signature, _target, _view), resident in self._residents.items():
            counts = resident.record_counts()
            entry = residents.setdefault(signature, dict.fromkeys(
                ("records", "epochs_fed", "rebuilds", "operators",
                 "targets"), 0))
            entry["records"] += sum(counts.values())
            entry["epochs_fed"] += resident.epochs_fed
            entry["rebuilds"] += resident.rebuilds
            entry["operators"] += len(counts)
            entry["targets"] += 1
        payload = {"total_records": sum(entry["records"]
                                        for entry in residents.values()),
                   "residents": dict(sorted(residents.items()))}
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
            "workers": self.gs.workers,
            "backend": self.gs.backend,
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
