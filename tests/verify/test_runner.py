"""The fuzz campaign runner, including the acceptance mutation check:
a deliberately injected off-by-one in the reduce-family ``count_by_key``
operator must be caught, shrunk to a tiny repro, and replayable."""

import pytest

from repro.differential.collection import Collection
from repro.differential.multiset import add_into
from repro.differential.timestamp import leq
from repro.differential.trace import KeyTrace
from repro.verify.replay import load_repro, replay_repro
from repro.verify.runner import FuzzConfig, FuzzReport, run_fuzz


@pytest.fixture
def off_by_one_count(monkeypatch):
    """Plant `+ 1` into count_by_key — the classic reduce-operator bug."""
    def broken(self, name: str = "count") -> Collection:
        return self.reduce(lambda key, vals: [sum(vals.values()) + 1],
                           name=name)

    monkeypatch.setattr(Collection, "count_by_key", broken)


@pytest.fixture
def skip_one_time(monkeypatch):
    """Every 97th accumulation over more than one stored time leaves one
    covered time out — a trace defect, not an output bug."""
    accumulate = KeyTrace.accumulate
    calls = [0]

    def skipping(self, time):
        acc = accumulate(self, time)
        covered = [s for s in self.entries if s != time and leq(s, time)]
        if covered:
            calls[0] += 1
            if calls[0] % 97 == 0:
                acc = add_into(dict(acc), self.entries[covered[0]],
                               factor=-1)
        return acc

    monkeypatch.setattr(KeyTrace, "accumulate", skipping)


class TestCleanCampaign:
    def test_small_campaign_is_green(self, tmp_path):
        config = FuzzConfig(seed=3, iterations=3,
                            repro_out=str(tmp_path / "r.json"))
        report = run_fuzz(config)
        assert report.ok
        assert report.iterations == 3
        assert report.oracle_checks > 0
        assert report.invariant_checks > 0
        assert not (tmp_path / "r.json").exists()
        assert "OK" in report.summary()

    def test_determinism(self, tmp_path):
        first = run_fuzz(FuzzConfig(seed=5, iterations=2))
        second = run_fuzz(FuzzConfig(seed=5, iterations=2))
        assert first.cases_by_kind == second.cases_by_kind
        assert first.oracle_checks == second.oracle_checks

    def test_restricted_algorithms(self):
        report = run_fuzz(FuzzConfig(seed=1, iterations=2,
                                     algorithms="wcc"))
        assert report.ok
        # 1 algorithm x 3 modes per iteration.
        assert report.oracle_checks == 6

    def test_log_callback(self):
        lines = []
        run_fuzz(FuzzConfig(seed=1, iterations=1), log=lines.append)
        assert any("iter 1/1" in line for line in lines)
        assert any("OK" in line for line in lines)


class TestMutationIsCaught:
    """Acceptance criterion: the injected off-by-one is detected and
    shrunk to a repro file of <= 3 views."""

    def test_caught_shrunk_and_replayable(self, off_by_one_count,
                                          tmp_path, monkeypatch):
        out = tmp_path / "repro.json"
        report = run_fuzz(FuzzConfig(seed=7, iterations=10,
                                     algorithms=["degrees"],
                                     repro_out=str(out)))
        assert not report.ok
        mismatch = report.mismatches[0]
        assert mismatch.invariant == "oracle"
        assert mismatch.algorithm == "degrees"
        assert report.shrunk_views is not None
        assert report.shrunk_views <= 3
        assert report.repro_paths == [str(out)]

        repro = load_repro(out)
        assert repro.algorithm == "degrees"
        assert repro.collection.num_views <= 3
        # The repro records the failing plan's static-analysis verdict.
        assert repro.analysis is not None and repro.analysis["ok"]
        # Still failing while the mutation is planted...
        assert replay_repro(out) is not None
        # ...and green again once the operator is fixed.
        monkeypatch.undo()
        assert replay_repro(out) is None

    def test_keep_going_collects_multiple_repros(self, off_by_one_count,
                                                 tmp_path):
        report = run_fuzz(FuzzConfig(seed=7, iterations=3,
                                     algorithms=["degrees"],
                                     repro_out=str(tmp_path / "r.json"),
                                     stop_on_mismatch=False))
        assert not report.ok
        assert report.iterations == 3
        assert len(report.mismatches) == 3


class TestEngineDefectIsCaught:
    def test_skipped_time_is_a_named_mismatch_not_a_traceback(
            self, skip_one_time, tmp_path):
        out = tmp_path / "repro.json"
        report = run_fuzz(FuzzConfig(seed=7, iterations=3,
                                     algorithms=["wcc"],
                                     repro_out=str(out)))
        assert not report.ok
        mismatch = report.mismatches[0]
        assert mismatch.algorithm == "wcc"
        assert mismatch.invariant in ("oracle", "engine")
        assert report.repro_paths == [str(out)]
        repro = load_repro(out)
        assert repro.check["invariant"] == mismatch.invariant
        assert repro.collection.num_views >= 1

    def test_escaped_exception_becomes_the_checks_mismatch(
            self, monkeypatch, tmp_path):
        def crash(self, name: str = "count") -> Collection:
            raise RuntimeError("planted crash")

        monkeypatch.setattr(Collection, "count_by_key", crash)
        out = tmp_path / "repro.json"
        report = run_fuzz(FuzzConfig(seed=7, iterations=1,
                                     algorithms=["degrees"],
                                     repro_out=str(out)))
        mismatch = report.mismatches[0]
        assert mismatch.invariant == "oracle"
        assert "RuntimeError escaped the check: planted crash" in \
            mismatch.detail
        assert replay_repro(out) is not None


def test_report_summary_counts():
    report = FuzzReport(seed=9, iterations=2,
                        cases_by_kind={"churn": 2}, oracle_checks=12,
                        invariant_checks=4, wall_seconds=0.5)
    text = report.summary()
    assert "seed 9" in text and "churn=2" in text and "OK" in text
