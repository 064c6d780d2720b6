"""The streaming engine: continuous queries, atomicity, durability."""

import pytest

from repro.core.resident import ResidentDataflow
from repro.core.resilience import FaultPlan, FaultSpec, decode_diff
from repro.core.system import Graphsurge
from repro.errors import (
    CheckpointError,
    GraphsurgeError,
    InjectedFault,
    RequestError,
    StreamError,
)
from repro.differential.multiset import add_into
from repro.graph.property_graph import PropertyGraph
from repro.stream import StreamBatch, StreamEngine, churn_batches
from repro.stream.engine import COMPACT_EVERY, KEEP_EPOCHS
from repro.verify.oracles import output_map, resolve_algorithms

WCC = '{"computation":"wcc","params":{}}'
DEGREES = '{"computation":"degrees","params":{}}'


def wcc_engine(**kwargs):
    engine = StreamEngine(**kwargs)
    engine.register("wcc")
    return engine


def expected_output(engine, name):
    spec = resolve_algorithms([name])[0]
    triples = [triple for triple, mult in sorted(engine.edges.items())
               for _ in range(mult)]
    return spec.expected(triples, {})


def expected_wcc(engine):
    return expected_output(engine, "wcc")


class TestRegistration:
    def test_duplicate_signature_rejected(self):
        engine = wcc_engine()
        try:
            with pytest.raises(RequestError, match="already registered"):
                engine.register("wcc")
        finally:
            engine.close()

    def test_mid_stream_registration_seeds_from_live_graph(self):
        engine = wcc_engine()
        try:
            engine.ingest(StreamBatch(appends=((1, 2, 1), (3, 4, 1))))
            signature = engine.register("degrees")
            assert output_map(engine.snapshot(signature)) == {1: 1, 3: 1}
        finally:
            engine.close()

    def test_graph_seeds_epoch_zero(self):
        graph = PropertyGraph()
        for node in (1, 2, 3):
            graph.add_node(node)
        graph.add_edge(1, 2)
        engine = wcc_engine(graph=graph)
        try:
            assert engine.edges == {(1, 2, 1): 1}
            assert output_map(engine.snapshot(WCC)) == {1: 1, 2: 1}
        finally:
            engine.close()


class TestIngestion:
    def test_ingest_without_queries_is_request_error(self):
        engine = StreamEngine()
        with pytest.raises(RequestError, match="no continuous queries"):
            engine.ingest(StreamBatch(appends=((1, 2, 1),)))

    def test_per_epoch_delta_and_snapshot_track_reference(self):
        engine = wcc_engine()
        try:
            for batch in churn_batches(3, 25, num_nodes=10, churn=3,
                                       base_edges=5):
                payload = engine.ingest(batch)
                assert payload["epoch"] == engine.epoch
                assert output_map(engine.snapshot(WCC)) == \
                    expected_wcc(engine)
        finally:
            engine.close()

    def test_invalid_batch_is_atomic(self):
        engine = wcc_engine()
        try:
            engine.ingest(StreamBatch(appends=((1, 2, 1),)))
            edges_before = dict(engine.edges)
            rows_before = len(engine.meter.epochs)
            with pytest.raises(StreamError, match="beyond its "
                                                  "multiplicity"):
                engine.ingest(StreamBatch(appends=((3, 4, 1),),
                                          retracts=((8, 9, 1),)))
            assert engine.edges == edges_before
            assert engine.epoch == 1
            assert len(engine.meter.epochs) == rows_before
        finally:
            engine.close()

    def test_append_then_retract_within_one_batch_cancels(self):
        engine = wcc_engine()
        try:
            engine.ingest(StreamBatch(appends=((1, 2, 1),),
                                      retracts=((1, 2, 1),)))
            assert engine.edges == {}
            assert output_map(engine.snapshot(WCC)) == {}
        finally:
            engine.close()

    def test_snapshot_unknown_query(self):
        engine = wcc_engine()
        try:
            with pytest.raises(RequestError, match="unknown stream "
                                                   "query"):
                engine.snapshot("nope")
        finally:
            engine.close()


class TestFaultRecovery:
    def test_poisoned_resident_rebuilds_on_next_epoch(self):
        engine = wcc_engine(fault_plan=FaultPlan.single("epoch", 2))
        try:
            engine.ingest(StreamBatch(appends=((1, 2, 1),)))
            with pytest.raises(InjectedFault):
                engine.ingest(StreamBatch(appends=((2, 3, 1),)))
            resident = engine.queries[WCC].resident
            assert resident.dataflow is None
            # The epoch was still absorbed into the live multiset; the
            # next ingest rebuilds from it and stays exact.
            payload = engine.ingest(StreamBatch(appends=((4, 5, 1),)))
            assert payload["epoch"] == 3
            assert resident.rebuilds == 2
            assert output_map(engine.snapshot(WCC)) == \
                expected_wcc(engine)
        finally:
            engine.close()


    @pytest.mark.parametrize("snapshot_before_rebuild", [False, True])
    def test_summed_deltas_equal_snapshot_across_a_poisoned_epoch(
            self, snapshot_before_rebuild):
        # Register is "epoch" invocation 0; the second ingest faults.
        engine = wcc_engine(fault_plan=FaultPlan.single("epoch", 2))
        try:
            payloads = [engine.ingest(StreamBatch(appends=((1, 2, 1),)))]
            with pytest.raises(InjectedFault):
                engine.ingest(StreamBatch(appends=((2, 3, 1),)))
            if snapshot_before_rebuild:
                # A read rebuilds the resident too; it must not swallow
                # the delta the delta consumer is still owed.
                assert output_map(engine.snapshot(WCC)) == \
                    expected_wcc(engine)
            payloads.append(engine.ingest(StreamBatch(appends=((4, 5, 1),))))
            summed = {}
            for payload in payloads:
                add_into(summed, decode_diff(
                    payload["results"][WCC]["output_delta"]))
            # The epoch after the rebuild reports a true delta against
            # the last reported output, not the rebuilt dataflow's whole
            # output: a client summing deltas lands on the snapshot.
            assert summed == engine.snapshot(WCC)
            assert output_map(summed) == expected_wcc(engine)
        finally:
            engine.close()

    def test_a_failed_epoch_still_reaches_every_query(self, tmp_path):
        # Register is "epoch" invocation 0 and 1; the first ingest's
        # first query (degrees, in signature order) faults.
        engine = StreamEngine(fault_plan=FaultPlan.single("epoch", 2))
        journal = tmp_path / "faulted.ckpt"
        try:
            assert engine.register("degrees") == DEGREES
            assert engine.register("wcc") == WCC
            engine.attach_journal(journal)
            with pytest.raises(InjectedFault):
                engine.ingest(StreamBatch(appends=((1, 2, 1), (2, 3, 1))))
            payload = engine.ingest(StreamBatch(appends=((5, 6, 1),)))
            live = {signature: engine.snapshot(signature)
                    for signature in (DEGREES, WCC)}
            # Both queries started empty, so the one delivered delta of
            # each owes the failed epoch's output too: wcc absorbed that
            # batch, but its result was never reported.
            for signature in (DEGREES, WCC):
                assert decode_diff(payload["results"][signature]
                                   ["output_delta"]) == live[signature]
            assert output_map(live[WCC]) == \
                {1: 1, 2: 1, 3: 1, 5: 5, 6: 5}
            assert output_map(live[DEGREES]) == \
                expected_output(engine, "degrees")
            assert output_map(live[WCC]) == expected_wcc(engine)
        finally:
            engine.close()
        resumed = StreamEngine.resume(journal)
        try:
            assert resumed.epoch == 2
            assert {signature: resumed.snapshot(signature)
                    for signature in (DEGREES, WCC)} == live
        finally:
            resumed.close()


    def test_every_querys_summed_deltas_equal_its_snapshot_under_faults(
            self):
        # Faults land on different queries at different epochs, two of
        # them in one epoch and some in back-to-back epochs.
        plan = FaultPlan([FaultSpec("epoch", fires=(7, 8, 12, 13, 14, 22))])
        engine = StreamEngine(fault_plan=plan)
        names = ("degrees", "sssp", "wcc")
        try:
            signatures = [engine.register(name) for name in names]
            summed = {signature: {} for signature in signatures}
            failures = 0
            for batch in churn_batches(5, 14, num_nodes=8, churn=2):
                try:
                    payload = engine.ingest(batch)
                except InjectedFault:
                    failures += 1
                    continue
                for signature in signatures:
                    add_into(summed[signature], decode_diff(
                        payload["results"][signature]["output_delta"]))
            payload = engine.ingest(StreamBatch(appends=((1, 7, 1),)))
            for signature in signatures:
                add_into(summed[signature], decode_diff(
                    payload["results"][signature]["output_delta"]))
            assert failures >= 3
            for name, signature in zip(names, signatures):
                assert summed[signature] == engine.snapshot(signature)
                assert output_map(summed[signature]) == \
                    expected_output(engine, name)
        finally:
            engine.close()


class TestIncrementality:
    def test_streamed_work_is_well_under_per_epoch_recompute(self):
        # A graph much larger than each batch: per-epoch cost must scale
        # with the batch, not with the accumulated graph.
        engine = wcc_engine()
        query = engine.queries[WCC]
        streamed = scratch = 0
        try:
            for batch in churn_batches(11, 60, num_nodes=80, churn=3,
                                       base_edges=150):
                streamed += engine.ingest(batch)["results"][WCC]["work"]
                fresh = ResidentDataflow(query.computation)
                try:
                    scratch += fresh.advance_by(query.input_for(
                        engine.edges)).work.total_work
                finally:
                    fresh.close()
        finally:
            engine.close()
        assert streamed * 2 < scratch


class TestCompaction:
    # Right after a fold the capture holds the fold, KEEP_EPOCHS exact
    # epochs and the current one; COMPACT_EVERY - 1 more epochs arrive
    # before the next fold.
    BOUND = KEEP_EPOCHS + COMPACT_EVERY + 1

    def test_capture_times_stay_bounded(self):
        engine = wcc_engine()
        try:
            for batch in churn_batches(7, 40, num_nodes=10, churn=3,
                                       base_edges=5):
                engine.ingest(batch)
                capture = engine.queries[WCC].resident.capture
                assert len(capture.trace.entries) <= self.BOUND
            assert output_map(engine.snapshot(WCC)) == \
                expected_wcc(engine)
        finally:
            engine.close()

    def test_resident_memory_stays_bounded_over_a_thousand_epochs(self):
        engine = wcc_engine()
        records = []
        try:
            for batch in churn_batches(13, 1000, num_nodes=12, churn=3,
                                       base_edges=8):
                engine.ingest(batch)
                memory = engine.resident_memory()[WCC]
                assert memory["capture_times"] <= self.BOUND
                records.append(memory["records"])
            assert output_map(engine.snapshot(WCC)) == \
                expected_wcc(engine)
        finally:
            engine.close()
        # Stored records follow the live graph, not the epoch count: the
        # second 500 epochs never hold more than the first 500 did.
        assert max(records[500:]) <= max(records[:500])


class TestBackends:
    def test_process_backend_matches_inline_per_epoch(self):
        # Compaction reaches process workers as a broadcast; over 17
        # epochs each worker's shard traces fold twice.
        rows = {}
        for backend in ("inline", "process"):
            engine = wcc_engine(workers=2, backend=backend)
            try:
                observed = []
                for batch in churn_batches(5, 2 * COMPACT_EVERY + 1,
                                           num_nodes=8, churn=2,
                                           base_edges=4):
                    payload = engine.ingest(batch)
                    row = payload["results"][WCC]
                    observed.append((row["epoch"], row["output_delta"],
                                     row["work"], row["parallel_time"]))
                rows[backend] = observed
            finally:
                engine.close()
        assert rows["inline"] == rows["process"]


class TestDurability:
    def _stream(self, engine, batches):
        rows = []
        for batch in batches:
            payload = engine.ingest(batch)
            row = payload["results"][WCC]
            rows.append((row["epoch"], row["output_delta"], row["work"]))
        return rows

    def test_kill_and_resume_is_byte_identical(self, tmp_path):
        journal = tmp_path / "stream.ckpt"
        batches = churn_batches(2, 20, num_nodes=10, churn=3,
                                base_edges=6)
        baseline_engine = wcc_engine()
        try:
            baseline = self._stream(baseline_engine, batches)
        finally:
            baseline_engine.close()

        first = wcc_engine()
        try:
            first.attach_journal(journal)
            prefix = self._stream(first, batches[:9])
        finally:
            first.close()
        assert prefix == baseline[:9]

        resumed = StreamEngine.resume(journal)
        try:
            assert resumed.epoch == 9
            replayed = [(m.epoch, None, m.work)
                        for m in resumed.meter.epochs]
            assert [(e, w) for e, _d, w in replayed] == \
                [(e, w) for e, _d, w in baseline[:9]]
            tail = self._stream(resumed, batches[9:])
        finally:
            resumed.close()
        assert tail == baseline[9:]

    def test_resumes_an_aliased_header_as_the_canonical_query(
            self, tmp_path):
        """A header that names a query by alias with an explicit default
        (as journals written before the name table signed requests do)
        resumes under the canonical signature, epoch for epoch equal to
        a fresh canonical run."""
        from repro.core.resilience import CheckpointWriter

        def timeless(row):
            return dict(row, latency_s=None)

        batches = churn_batches(5, 10, num_nodes=8, churn=3, base_edges=6)
        fresh = StreamEngine()
        try:
            signature = fresh.register("pagerank")
            results = [fresh.ingest(batch)["results"][signature]
                       for batch in batches]
            rows = [timeless(row) for row in fresh.meter.rows()]
        finally:
            fresh.close()

        journal = tmp_path / "aliased.ckpt"
        writer = CheckpointWriter.fresh(journal, {
            "kind": StreamEngine.JOURNAL_KIND,
            "queries": [["PR", {"iterations": 10}]], "workers": 1,
            "backend": "inline", "weight_property": None,
            "compact_every": 8, "keep_epochs": 4})
        for index, batch in enumerate(batches[:6]):
            writer.append_view(dict(batch.to_record(), index=index,
                                    view_name=f"epoch-{index + 1}"))
        writer.close()

        resumed = StreamEngine.resume(journal)
        try:
            assert list(resumed.queries) == [signature]
            tail = [resumed.ingest(batch)["results"][signature]
                    for batch in batches[6:]]
            assert [timeless(row) for row in tail] == \
                [timeless(row) for row in results[6:]]
            assert [timeless(row) for row in resumed.meter.rows()] == rows
        finally:
            resumed.close()

    def test_new_headers_store_the_canonical_request(self, tmp_path):
        from repro.core.resilience import load_checkpoint

        engine = StreamEngine()
        try:
            engine.register("PR", {"iterations": 10})
            engine.register("BFS", {"source": "3"})
            engine.attach_journal(tmp_path / "new.ckpt")
        finally:
            engine.close()
        header = load_checkpoint(tmp_path / "new.ckpt").header
        assert header["queries"] == [["bfs", {"source": 3}],
                                     ["pagerank", {}]]
        assert "compact_every" not in header
        assert "keep_epochs" not in header

    @pytest.mark.parametrize("cadence", [
        {"compact_every": 0},
        {"compact_every": 8, "keep_epochs": 2},
    ])
    def test_resume_rejects_another_compaction_cadence(self, tmp_path,
                                                       cadence):
        from repro.core.resilience import CheckpointWriter

        path = tmp_path / "cadence.ckpt"
        CheckpointWriter.fresh(path, dict(
            kind=StreamEngine.JOURNAL_KIND, queries=[["wcc", {}]],
            **cadence)).close()
        with pytest.raises(CheckpointError, match="was written with"):
            StreamEngine.resume(path)

    def test_resume_rejects_non_stream_journal(self, tmp_path):
        from repro.core.resilience import CheckpointWriter

        path = tmp_path / "other.ckpt"
        CheckpointWriter.fresh(path, {"kind": "run"}).close()
        with pytest.raises(CheckpointError, match="not a stream "
                                                  "journal"):
            StreamEngine.resume(path)
        with pytest.raises(CheckpointError, match="no stream journal"):
            StreamEngine.resume(tmp_path / "missing.ckpt")


class TestSystemFacade:
    def test_graphsurge_stream_registers_and_journals(self, tmp_path):
        graph = PropertyGraph()
        for node in (1, 2, 3, 4):
            graph.add_node(node)
        graph.add_edge(1, 2)
        gs = Graphsurge(workers=2)
        gs.add_graph(graph, "G")
        journal = tmp_path / "facade.ckpt"
        engine = gs.stream("G", ["wcc", ("degrees", {})],
                           journal_path=journal)
        try:
            assert engine.workers == 2
            assert sorted(q.name for q in engine.queries.values()) == \
                ["degrees", "wcc"]
            engine.ingest(StreamBatch(appends=((3, 4, 1),)))
            assert output_map(engine.snapshot(WCC)) == \
                {1: 1, 2: 1, 3: 3, 4: 3}
        finally:
            engine.close()
        assert journal.exists()

    def test_a_bad_query_closes_the_queries_already_registered(
            self, monkeypatch):
        closed = []
        monkeypatch.setattr(StreamEngine, "close",
                            lambda engine: closed.append(engine))
        with pytest.raises(RequestError, match="unknown computation"):
            Graphsurge().stream(None, ["wcc", "frobnicate"])
        assert len(closed) == 1 and list(closed[0].queries) == [WCC]
        with pytest.raises(GraphsurgeError, match="'queries' entries"):
            Graphsurge().stream(None, ["wcc", ["pr", 10]])
        assert len(closed) == 2

    def test_registering_after_the_journal_is_attached_is_refused(
            self, tmp_path):
        # The journal header fixes the query set: a query registered
        # later would be missing from the resumed engine.
        journal = tmp_path / "fixed.ckpt"
        engine = Graphsurge().stream(None, ["wcc"], journal_path=journal)
        try:
            with pytest.raises(RequestError, match="journal is attached"):
                engine.register("degrees")
            assert list(engine.queries) == [WCC]
            engine.ingest(StreamBatch(appends=((1, 2, 1),)))
        finally:
            engine.close()
        resumed = StreamEngine.resume(journal)
        try:
            assert list(resumed.queries) == [WCC]
            assert output_map(resumed.snapshot(WCC)) == {1: 1, 2: 1}
        finally:
            resumed.close()

    def test_stream_without_target_starts_empty(self):
        engine = Graphsurge().stream(None, ["wcc"])
        try:
            assert engine.edges == {}
        finally:
            engine.close()
