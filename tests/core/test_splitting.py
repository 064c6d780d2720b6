"""Adaptive splitting: cost models and the per-batch decision policy."""

import pytest

from repro.core.splitting.model import LinearCostModel
from repro.core.splitting.optimizer import AdaptiveSplitter, SplitDecision


class TestLinearCostModel:
    def test_no_data_predicts_none(self):
        assert LinearCostModel().predict(10) is None

    def test_single_point_is_proportional(self):
        model = LinearCostModel()
        model.observe(100, 50)
        assert model.predict(200) == pytest.approx(100)

    def test_single_point_zero_size(self):
        model = LinearCostModel()
        model.observe(0, 7)
        assert model.predict(100) == pytest.approx(7)

    def test_two_points_exact_line(self):
        model = LinearCostModel()
        model.observe(10, 25)   # y = 2x + 5
        model.observe(20, 45)
        assert model.predict(30) == pytest.approx(65)
        a, b = model.coefficients()
        assert a == pytest.approx(2)
        assert b == pytest.approx(5)

    def test_identical_sizes_fall_back_to_mean(self):
        model = LinearCostModel()
        model.observe(10, 4)
        model.observe(10, 6)
        assert model.predict(10) == pytest.approx(5)

    def test_least_squares_over_noise(self):
        model = LinearCostModel()
        for x in range(1, 20):
            model.observe(x, 3 * x + (1 if x % 2 else -1))
        assert model.predict(100) == pytest.approx(300, rel=0.05)

    def test_prediction_clamped_nonnegative(self):
        model = LinearCostModel()
        model.observe(10, 1)  # extrapolating down goes negative
        model.observe(20, 11)
        assert model.predict(0) == 0.0


class TestAdaptiveSplitter:
    def test_first_two_views_fixed_protocol(self):
        splitter = AdaptiveSplitter()
        assert splitter.decide(0, 100, 100) is SplitDecision.SCRATCH
        assert splitter.decide(1, 100, 10) is SplitDecision.DIFFERENTIAL

    def test_prefers_cheaper_estimate(self):
        splitter = AdaptiveSplitter(batch_size=1)
        splitter.decide(0, 100, 100)
        splitter.observe_scratch(100, 100.0)    # scratch: 1.0 per edge
        splitter.decide(1, 100, 10)
        splitter.observe_differential(10, 1.0)  # diff: 0.1 per diff
        # View with small diff: differential is cheaper.
        assert splitter.decide(2, 100, 5) is SplitDecision.DIFFERENTIAL
        splitter.observe_differential(5, 0.5)
        # View with a huge diff: scratch is cheaper.
        assert splitter.decide(3, 100, 5000) is SplitDecision.SCRATCH

    def test_batch_locks_decision(self):
        splitter = AdaptiveSplitter(batch_size=5)
        splitter.decide(0, 100, 100)
        splitter.observe_scratch(100, 100.0)
        splitter.decide(1, 100, 10)
        splitter.observe_differential(10, 1.0)
        first = splitter.decide(2, 100, 5)
        assert first is SplitDecision.DIFFERENTIAL
        # Even a view that would individually prefer scratch stays in batch.
        for index in range(3, 7):
            assert splitter.decide(index, 100, 10**6) is first
        # Batch exhausted: next decision is fresh.
        assert splitter.decide(7, 100, 10**6) is SplitDecision.SCRATCH

    def test_decisions_recorded(self):
        splitter = AdaptiveSplitter(batch_size=1)
        splitter.decide(0, 100, 100)
        splitter.observe_scratch(100, 1.0)     # scratch very cheap
        splitter.decide(1, 100, 100)
        splitter.observe_differential(100, 50.0)
        assert splitter.decide(2, 100, 100) is SplitDecision.SCRATCH
        assert [rec.decision for rec in splitter.history] == [
            SplitDecision.SCRATCH, SplitDecision.DIFFERENTIAL,
            SplitDecision.SCRATCH]

    def test_invalid_batch_size(self):
        with pytest.raises(ValueError):
            AdaptiveSplitter(batch_size=0)

    def test_history_audit_records(self):
        splitter = AdaptiveSplitter(batch_size=1)
        for index in range(4):
            splitter.decide(index, 10, 10)
            splitter.observe_scratch(10, 1.0)
        assert [rec.view_index for rec in splitter.history] == [0, 1, 2, 3]
