"""Frontier-driven trace compaction: the streaming memory bound.

The opportunistic per-key ``maybe_compact`` keeps *touched* keys small;
``Dataflow.compact(before_epoch)`` is the sweep a long-running stream
needs so quiet keys — and the capture's per-epoch diff log — stop
growing with the number of epochs ever processed.
"""


from repro.differential import Dataflow
from repro.differential.trace import Trace


def count_dataflow(workers=1, backend="inline"):
    df = Dataflow(workers=workers, backend=backend)
    edges = df.new_input("edges")
    out = df.capture(edges.count_by_key(), "out")
    return df, out


class TestTraceCompactBelow:
    def test_preserves_accumulations_at_live_times(self):
        trace = Trace("t")
        for epoch in range(6):
            trace.update("k", (epoch,), {epoch: 1})
        expected = trace.accumulate("k", (5,))
        trace.compact_below(4)
        assert trace.accumulate("k", (5,)) == expected
        assert len(trace.key_trace("k").entries) == 3  # (0,), (4,), (5,)

    def test_drops_fully_cancelled_keys(self):
        trace = Trace("t")
        trace.update("gone", (0,), {"v": 1})
        trace.update("gone", (1,), {"v": -1})
        trace.update("kept", (0,), {"v": 1})
        trace.compact_below(2)
        assert "gone" not in trace
        assert "kept" in trace
        assert trace.record_count() == 1


class TestCaptureCompaction:
    def test_accumulated_value_survives_compaction(self):
        df, out = count_dataflow()
        for epoch in range(8):
            df.step({"edges": {(epoch % 2, epoch): 1}})
        before = out.value_at_epoch(7)
        assert len(out.trace.entries) == 8
        df.compact(6)
        assert out.value_at_epoch(7) == before
        # Epochs 0..5 folded into one representative; 6 and 7 stay exact.
        assert len(out.trace.entries) == 3
        assert out.diff_at((7,)) != {}

    def test_bounded_under_continuous_churn(self):
        df, out = count_dataflow()
        live = None
        for epoch in range(60):
            delta = {("a", epoch): 1}
            if live is not None:
                delta[live] = -1
            live = ("a", epoch)
            df.step({"edges": delta})
            if epoch % 8 == 7:
                df.compact(df.epoch - 2)
        # One live record: the capture holds the fold plus the recent
        # exact epochs, not one entry per epoch streamed.
        assert len(out.trace.entries) <= 12
        assert out.value_at_epoch(df.epoch) == {("a", 1): 1}

    def test_compact_is_idempotent_and_clamped(self):
        df, out = count_dataflow()
        df.step({"edges": {(1, 2): 1}})
        df.compact(10_000)  # clamped to the last completed epoch
        df.compact(10_000)
        df.compact(0)  # no-op
        assert out.value_at_epoch(df.epoch) == {(1, 1): 1}


class TestOperatorCompaction:
    def test_inline_keyed_traces_shrink_and_stay_correct(self):
        from repro.differential.debug import operator_record_counts

        df, out = count_dataflow()
        for epoch in range(30):
            delta = {("k", epoch): 1}
            if epoch:
                delta[("k", epoch - 1)] = -1
            df.step({"edges": delta})
        grown = sum(operator_record_counts(df).values())
        df.compact(df.epoch)
        compacted = sum(operator_record_counts(df).values())
        assert compacted < grown
        # Further epochs still compute correctly off compacted history.
        df.step({"edges": {("k", 100): 1}})
        assert out.value_at_epoch(df.epoch) == {("k", 2): 1}

    def test_process_backend_broadcast_shrinks_worker_state(self):
        from repro.differential.debug import operator_record_counts

        df, out = count_dataflow(workers=2, backend="process")
        try:
            for epoch in range(24):
                df.step({"edges": {(epoch % 3, epoch): 1}})
            reference = out.value_at_epoch(df.epoch)
            grown = sum(operator_record_counts(df).values())
            df.compact(df.epoch)
            # The broadcast is fire-and-forget; stats() is the next
            # synchronous exchange and observes the compacted traces.
            compacted = sum(operator_record_counts(df).values())
            assert compacted < grown
            assert out.value_at_epoch(df.epoch) == reference
            df.step({"edges": {(0, 99): 1}})
            assert out.value_at_epoch(df.epoch)[(0, 9)] == 1
        finally:
            df.close()

    def test_iterative_dataflow_correct_after_compaction(self):
        # WCC-style propagation: compaction must fold loop histories per
        # iteration suffix without disturbing future epochs.
        df = Dataflow()
        edges = df.new_input("edges")
        seeds = edges.flat_map(
            lambda rec: [(rec[0], rec[0]), (rec[1], rec[1])]).min_by_key()

        def body(labels, scope):
            e = scope.enter(edges)
            s = scope.enter(seeds)
            prop = labels.join(e, lambda u, lab, v: (v, lab))
            return prop.concat(s).min_by_key()

        out = df.capture(seeds.iterate(body), "wcc")
        df.step({"edges": {(1, 2): 1, (2, 1): 1}})
        df.step({"edges": {(3, 4): 1, (4, 3): 1}})
        df.compact(df.epoch)
        df.step({"edges": {(2, 3): 1, (3, 2): 1}})
        assert out.value_at_epoch(df.epoch) == {
            (1, 1): 1, (2, 1): 1, (3, 1): 1, (4, 1): 1}


class TestMixedBatchEpoch:
    """S4: one epoch carrying appends and retracts together."""

    def test_mixed_append_retract_single_step(self):
        df, out = count_dataflow()
        df.step({"edges": {("a", 1): 1, ("a", 2): 1, ("b", 7): 1}})
        # One step both retracts an existing record and appends new ones.
        df.step({"edges": {("a", 1): -1, ("b", 8): 1, ("c", 9): 1}})
        assert out.value_at_epoch(df.epoch) == {
            ("a", 1): 1, ("b", 2): 1, ("c", 1): 1}
        # The epoch's emitted delta reflects both directions at once.
        delta = out.diff_at((1,))
        assert delta == {("a", 2): -1, ("a", 1): 1, ("b", 1): -1,
                         ("b", 2): 1, ("c", 1): 1}

    def test_append_and_full_retract_cancel_key(self):
        df, out = count_dataflow()
        df.step({"edges": {("x", 1): 1}})
        df.step({"edges": {("x", 1): -1, ("y", 2): 1}})
        assert out.value_at_epoch(df.epoch) == {("y", 1): 1}
