"""The streaming memory bound.

Keyed traces hold one entry per loop suffix and none per epoch, so they
never grow with the number of epochs processed and need no sweep.
``Dataflow.compact(before_epoch)`` folds the one store that does grow:
each capture's per-epoch diff log.
"""


from repro.differential import Dataflow
from repro.differential.debug import operator_record_counts
from repro.differential.trace import Trace


def count_dataflow(workers=1, backend="inline"):
    df = Dataflow(workers=workers, backend=backend)
    edges = df.new_input("edges")
    out = df.capture(edges.count_by_key(), "out")
    return df, out


class TestKeyedTracesHoldNoEpochs:
    def test_a_root_key_is_one_running_sum(self):
        trace = Trace("t")
        for epoch in range(6):
            trace.update_batch((epoch,), {"k": {epoch: 1}})
        assert trace.accumulate("k", (0,)) == {e: 1 for e in range(6)}
        assert list(trace.get("k").entries) == [(0,)]

    def test_fully_cancelled_keys_leave_at_once(self):
        trace = Trace("t")
        trace.update_batch((0,), {"gone": {"v": 1}, "kept": {"v": 1}})
        trace.update_batch((1,), {"gone": {"v": -1}})
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


class TestOperatorState:
    def test_inline_keyed_state_is_the_live_state(self):
        df, out = count_dataflow()
        for epoch in range(30):
            delta = {("k", epoch): 1}
            if epoch:
                delta[("k", epoch - 1)] = -1
            df.step({"edges": delta})
            # One live input value and one count, whatever the epoch.
            assert sum(operator_record_counts(df).values()) == 2
        df.step({"edges": {("k", 100): 1}})
        assert out.value_at_epoch(df.epoch) == {("k", 2): 1}

    def test_process_backend_state_matches_inline_without_a_sweep(self):
        inline, inline_out = count_dataflow()
        df, out = count_dataflow(workers=2, backend="process")
        try:
            for epoch in range(24):
                feed = {"edges": {(epoch % 3, epoch): 1}}
                df.step(feed)
                inline.step(feed)
            # 24 live input values over 3 keys, plus one count per key.
            assert sum(operator_record_counts(df).values()) == 27
            assert operator_record_counts(df) == \
                operator_record_counts(inline)
            df.compact(df.epoch)
            assert out.value_at_epoch(df.epoch) == \
                inline_out.value_at_epoch(inline.epoch)
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
