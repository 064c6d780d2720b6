"""Resident session state: the delta economy, mutation, checkpointing.

The acceptance demo lives here: once each view of a collection has its
own resident, a request after a mutation is answered from resident
arrangements for a few percent of the first request's *work units*,
asserted via the meter figures the payload carries.
"""

import copy
import random

import pytest

from repro.core.resilience import FaultPlan, load_checkpoint
from repro.core.system import Graphsurge
from repro.graph.property_graph import PropertyGraph
from repro.errors import (
    CheckpointError,
    InjectedFault,
    RequestError,
    SchemaError,
    UnknownGraphError,
    UnknownPropertyError,
)
from repro.core.resident import ResidentDataflow, multiset_delta
from repro.serve.session import (
    ServeSession,
    build_request_computation,
    computation_signature,
)

WCC = computation_signature("wcc", {})
HIST_ON_G = ("create view collection hist on g "
             "[old: year <= 2013], [mid: year <= 2016], "
             "[all: year <= 2030];")


def wcc_run(session, target, **kwargs):
    return session.run(WCC, build_request_computation("wcc", {}), target,
                       **kwargs)


class TestRequestComputations:
    def test_known_names_build(self):
        assert build_request_computation("wcc", {}).name == "WCC"
        assert build_request_computation(
            "bfs", {"source": 1}).source == 1
        assert build_request_computation(
            "pagerank", {"iterations": 3}).iterations == 3

    def test_unknown_name_rejected(self):
        with pytest.raises(RequestError, match="unknown computation"):
            build_request_computation("frobnicate", {})

    def test_unknown_parameter_rejected(self):
        with pytest.raises(RequestError, match="unknown computation param"):
            build_request_computation("wcc", {"sauce": 1})

    def test_signature_is_canonical(self):
        assert computation_signature("WCC") == computation_signature(
            "wcc", {})
        assert computation_signature(
            "bfs", {"source": 1}) != computation_signature(
            "bfs", {"source": 2})


class TestMultisetDelta:
    def test_delta_advances_current_to_target(self):
        current = {"a": 1, "b": 2, "c": 1}
        target = {"a": 1, "b": 1, "d": 3}
        delta = multiset_delta(current, target)
        assert delta == {"b": -1, "c": -1, "d": 3}
        merged = dict(current)
        for record, mult in delta.items():
            merged[record] = merged.get(record, 0) + mult
        assert {k: v for k, v in merged.items() if v} == target

    def test_identical_multisets_have_empty_delta(self):
        assert multiset_delta({"a": 2}, {"a": 2}) == {}

    def test_zero_multiplicity_entries_in_current_are_ignored(self):
        # An (unconsolidated) zero entry in `current` must not emit a
        # spurious retraction, and a zero entry missing from `target`
        # must not emit -0.
        current = {"a": 0, "b": 1, "c": 0}
        target = {"a": 2, "b": 1}
        assert multiset_delta(current, target) == {"a": 2}

    def test_retract_to_empty_target(self):
        current = {"x": 3, "y": 1}
        assert multiset_delta(current, {}) == {"x": -3, "y": -1}

    def test_equal_counts_on_both_sides_cancel(self):
        current = {"x": 2, "y": 5, "z": 1}
        target = {"x": 2, "y": 5, "z": 4}
        assert multiset_delta(current, target) == {"z": 3}


class TestRenderOutput:
    """Regression: repr is not a canonical total order for records."""

    def test_mixed_type_keys_sort_by_canonical_order(self):
        from repro.core.resilience import render_output

        # repr-sorting puts ("a", 2) before (1, "b") (quote < digit) and
        # (10, ...) before (9, ...) (string compare); the canonical order
        # ranks numbers before strings and compares them numerically.
        output = {(10, "j"): 1, (9, "i"): 1, (1, "b"): 1, ("a", 2): 1}
        rendered = render_output(output)
        assert rendered == [
            [{"t": [1, "b"]}, 1],
            [{"t": [9, "i"]}, 1],
            [{"t": [10, "j"]}, 1],
            [{"t": ["a", 2]}, 1],
        ]

    def test_equal_valued_numeric_spellings_sort_identically(self):
        from repro.core.resilience import render_output
        from repro.timely.worker import canonical_order_key

        # 3 and 3.0 compare (and stable_hash) equal, so whichever spelling
        # a run's dict representative holds, its sort position is the same.
        ints = render_output({(3, "a"): 1, (2, "b"): 1, (4, "c"): 1})
        floats = render_output({(3.0, "a"): 1, (2, "b"): 1, (4, "c"): 1})
        assert [entry[0]["t"][1] for entry in ints] == ["b", "a", "c"]
        assert [entry[0]["t"][1] for entry in floats] == ["b", "a", "c"]
        assert canonical_order_key((3, "a")) == canonical_order_key(
            (3.0, "a"))


def _wcc_input(*edges):
    """Symmetric (src, (dst, w)) input multiset for a WCC dataflow."""
    diff = {}
    for src, dst in edges:
        for rec in ((src, (dst, 1)), (dst, (src, 1))):
            diff[rec] = diff.get(rec, 0) + 1
    return diff


class TestPoisonHardening:
    """A poisoned resident must release its dataflow unconditionally."""

    def test_poison_clears_state_even_when_close_raises(self):
        resident = ResidentDataflow(build_request_computation("wcc", {}))
        resident.advance_to(_wcc_input((1, 2)))

        def exploding_close():
            raise RuntimeError("close failed")

        resident.dataflow.close = exploding_close
        with pytest.raises(RuntimeError, match="close failed"):
            resident.reset()
        # Even though close() raised, the resident must not keep a
        # reference to the half-closed dataflow: the next advance has to
        # rebuild from scratch, not step a poisoned instance.
        assert resident.dataflow is None
        assert resident.capture is None
        assert resident.current == {}
        resident.advance_to(_wcc_input((1, 2)))
        assert resident.output()
        assert resident.rebuilds == 2

    def test_fresh_rebuild_steps_even_for_empty_delta(self):
        resident = ResidentDataflow(build_request_computation("wcc", {}))
        resident.advance_to(_wcc_input((1, 2)))
        resident.reset()
        # The zero-delta shortcut must be gated on *this build* having
        # been stepped, not on the lifetime epochs_fed counter — else a
        # rebuilt dataflow reads output off epoch -1 it never computed.
        resident.advance_to({})
        assert resident.dataflow.epoch == 0
        assert resident.output() == {}

    def test_injected_fault_releases_process_workers(self):
        import multiprocessing

        before = set(multiprocessing.active_children())
        plan = FaultPlan.single("epoch", 1)  # fire on the second step
        resident = ResidentDataflow(
            build_request_computation("wcc", {}), workers=2,
            backend="process", fault_plan=plan)
        first = _wcc_input((1, 2))
        second = _wcc_input((1, 2), (2, 3))
        resident.advance_to(first)
        with pytest.raises(InjectedFault):
            resident.advance_to(second)
        assert resident.dataflow is None
        # The worker children forked for the poisoned dataflow must be
        # gone — poison() closes the cluster, it does not abandon it.
        leaked = set(multiprocessing.active_children()) - before
        assert not leaked
        # The rebuilt resident absorbs the full target and answers.
        resident.advance_to(second)
        assert resident.output() == {(1, 1): 1, (2, 1): 1, (3, 1): 1}
        assert resident.rebuilds == 2
        resident.close()


class TestResidentEconomy:
    def test_each_view_absorbs_mutations_as_its_own_delta(self):
        """The acceptance demo: once every view of a collection has its
        own resident, a mutation costs a collection request only the
        mutation's delta — however many other targets ran in between."""
        rng = random.Random(5)
        graph = PropertyGraph("g")
        for node in range(40):
            graph.add_node(node, {})
        # A star in every view, so +1 edges never relabel a component.
        for node in range(1, 40):
            graph.add_edge(0, node, {"year": 2010})
        for _ in range(100):
            graph.add_edge(rng.randrange(40), rng.randrange(40),
                           {"year": rng.randrange(2010, 2020)})
        gs = Graphsurge()
        gs.add_graph(graph, "g")
        session = ServeSession(gs)
        session.execute_gvdl(HIST_ON_G)
        costs = []
        for _round in range(12):
            wcc_run(session, "g")
            served = wcc_run(session, "hist")
            costs.append(served["total_work"])
            cold_gs = Graphsurge()
            cold_gs.add_graph(copy.deepcopy(graph), "g")
            cold = ServeSession(cold_gs)
            cold.execute_gvdl(HIST_ON_G)
            assert [view["output"] for view in served["views"]] == \
                [view["output"] for view in wcc_run(cold, "hist")["views"]]
            session.mutate("g", add_edges=[
                (rng.randrange(40), rng.randrange(40), {"year": 2012})])
        # Requests 1-3 each leave one more view with its own resident;
        # from the fourth on, every view is maintained.
        maintained = costs[3:]
        assert all(cost <= 0.05 * costs[0] for cost in maintained), costs
        assert max(maintained[-3:]) <= 1.2 * max(maintained[:3]), costs

    def test_repeat_request_is_zero_work(self, serve_session):
        first = wcc_run(serve_session, "Calls")
        again = wcc_run(serve_session, "Calls")
        assert first["total_work"] > 0
        assert again["total_work"] == 0
        assert [view["output"] for view in again["views"]] == \
            [view["output"] for view in first["views"]]

    def test_mutation_absorbed_as_delta(self, serve_session, call_graph):
        cold = wcc_run(serve_session, "Calls")
        serve_session.mutate("Calls", add_edges=[(1, 8, {
            "duration": 5, "year": 2020})])
        assert serve_session.epoch == 1
        fresh = wcc_run(serve_session, "Calls")
        assert 0 < fresh["total_work"] < cold["total_work"]
        assert fresh["epoch"] == 1
        resident = serve_session._residents[(WCC, "Calls", None)]
        assert resident.rebuilds == 1  # no rebuild for the mutation

    def test_mutation_rematerializes_views(self, serve_session):
        serve_session.execute_gvdl(
            "create view recent on Calls edges where year >= 2019;")
        before = serve_session.gs.resolve("recent").num_edges
        serve_session.mutate("Calls", add_edges=[(1, 8, {
            "duration": 5, "year": 2020})])
        assert serve_session.gs.resolve("recent").num_edges == before + 1

    def test_mutation_on_unknown_graph_rejected(self, serve_session):
        with pytest.raises(UnknownGraphError):
            serve_session.mutate("nope", add_edges=[(1, 2, {})])

    @pytest.mark.parametrize("add_edges, error", [
        # The graph takes the edge; re-deriving `hist` cannot read it.
        ([(0, 3, {})], UnknownPropertyError),
        # The first edge lands, the second names an unknown node.
        ([(0, 3, {"year": 2011}), (0, 99, {"year": 2011})], SchemaError),
    ])
    def test_rejected_mutation_changes_nothing(self, tmp_path, add_edges,
                                               error):
        graph = PropertyGraph("g")
        for node in range(4):
            graph.add_node(node, {})
        graph.add_edge(0, 1, {"year": 2012})
        graph.add_edge(1, 2, {"year": 2020})
        pristine = copy.deepcopy(graph)
        gs = Graphsurge()
        gs.add_graph(graph, "g")
        session = ServeSession(gs)
        session.execute_gvdl("create view collection hist on g "
                             "[old: year <= 2013], [all: year <= 2030];")
        answer = wcc_run(session, "hist")
        edges = [(e.id, e.src, e.dst, e.properties) for e in graph.edges]
        journal = copy.deepcopy(session.journal)
        with pytest.raises(error):
            session.mutate("g", add_edges=add_edges)
        assert [(e.id, e.src, e.dst, e.properties)
                for e in graph.edges] == edges
        assert graph.add_edge(2, 3).id == len(edges)
        graph.remove_edges(2, 3)
        assert session.epoch == 0
        assert session.journal == journal
        assert session.describe()["collections"] == ["hist"]
        outputs = [view["output"] for view in answer["views"]]
        assert [view["output"] for view in
                wcc_run(session, "hist")["views"]] == outputs
        path = tmp_path / "session.ckpt"
        session.checkpoint(path)
        restored_gs = Graphsurge()
        restored_gs.add_graph(pristine, "g")
        restored = ServeSession(restored_gs)
        restored.restore(path)
        assert restored.epoch == 0
        assert [view["output"] for view in
                wcc_run(restored, "hist")["views"]] == outputs

    def test_retraction_shrinks_graph(self, serve_session):
        before = serve_session.gs.resolve("Calls").num_edges
        counts = serve_session.mutate("Calls", retract_edges=[(1, 2)])
        assert counts["edges_removed"] == 1
        assert serve_session.gs.resolve("Calls").num_edges == before - 1


class TestIntrospection:
    def test_describe_and_resident_memory(self, serve_session):
        serve_session.execute_gvdl(
            "create view recent on Calls edges where year >= 2019;")
        wcc_run(serve_session, "Calls")
        description = serve_session.describe()
        assert description["graphs"] == ["Calls"]
        assert description["views"] == ["recent"]
        assert description["epoch"] == 0
        assert description["journal_entries"] == 1
        memory = serve_session.resident_memory()
        assert memory["total_records"] > 0
        assert memory["residents"][WCC]["epochs_fed"] == 1

    def test_workers_and_backend_come_from_the_facade(self, call_graph):
        gs = Graphsurge(workers=2, backend="process")
        gs.add_graph(call_graph)
        session = ServeSession(gs)
        try:
            wcc_run(session, "Calls")
            residents = list(session._residents.values())
            assert residents and all(
                (r.workers, r.backend) == (2, "process") for r in residents)
            assert all(r.dataflow.cluster is not None for r in residents)
            description = session.describe()
            assert (description["workers"], description["backend"]) == \
                (2, "process")
        finally:
            session.close()


class TestCheckpointRestore:
    def test_roundtrip_reproduces_state(self, call_graph, tmp_path):
        # The session gets its own copy: replay must start from the graph
        # as loaded, *before* the journaled mutation was applied.
        gs = Graphsurge()
        gs.add_graph(copy.deepcopy(call_graph), "Calls")
        session = ServeSession(gs)
        session.execute_gvdl(
            "create view collection hist on Calls "
            "[old: year <= 2015], [all: year <= 2030];")
        session.mutate("Calls", add_edges=[(1, 8, {
            "duration": 5, "year": 2020})])
        original = wcc_run(session, "hist")
        path = tmp_path / "session.ckpt"
        assert session.checkpoint(path) == 2

        pristine = Graphsurge()
        pristine.add_graph(copy.deepcopy(call_graph), "Calls")
        restored = ServeSession(pristine)
        state = restored.restore(path)
        assert state is not None and state.completed_views == 2
        assert restored.epoch == 1
        assert restored.describe()["collections"] == ["hist"]
        replayed = wcc_run(restored, "hist")
        assert [view["output"] for view in replayed["views"]] == \
            [view["output"] for view in original["views"]]

    def test_restore_missing_file_is_none(self, serve_session, tmp_path):
        assert serve_session.restore(tmp_path / "absent.ckpt") is None

    def test_restore_rejects_foreign_journal(self, serve_session,
                                             tmp_path):
        from repro.core.resilience import CheckpointWriter

        path = tmp_path / "foreign.ckpt"
        CheckpointWriter.fresh(path, {"kind": "run"}).close()
        with pytest.raises(CheckpointError, match="serve-session"):
            serve_session.restore(path)

    def test_restore_requires_base_graphs(self, serve_session, tmp_path):
        path = tmp_path / "session.ckpt"
        serve_session.checkpoint(path)
        empty = ServeSession(Graphsurge())
        with pytest.raises(UnknownGraphError, match="Calls"):
            empty.restore(path)

    def test_checkpoint_readable_by_pr1_loader(self, serve_session,
                                               tmp_path):
        serve_session.execute_gvdl(
            "create view recent on Calls edges where year >= 2019;")
        path = tmp_path / "session.ckpt"
        serve_session.checkpoint(path)
        state = load_checkpoint(path)
        assert state.header["kind"] == "serve-session"
        assert not state.truncated
        assert state.views[0]["kind"] == "gvdl"
