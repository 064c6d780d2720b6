"""The invariant battery: passes on healthy code, pins down corruptions."""

import pytest

from repro.algorithms import Wcc
from repro.core.executor import ExecutionMode
from repro.errors import GraphsurgeError
from repro.verify.generator import random_churn_collection
from repro.verify.invariants import (
    build_check,
    check_analysis,
    check_checkpoint,
    check_engine,
    check_oracle,
    check_permutation,
    check_stream,
    check_tracing,
    check_workers,
)
from repro.differential.timestamp import leq
from repro.differential.trace import KeyTrace
from repro.errors import ConfigError
from repro.verify.oracles import (
    ALGORITHMS,
    AlgorithmSpec,
    algorithm_names,
    output_map,
    resolve_algorithms,
)


@pytest.fixture(scope="module")
def collection():
    return random_churn_collection(seed=11, num_views=4, num_nodes=8,
                                   churn=5)


WCC = ALGORITHMS["wcc"]

#: A spec whose oracle is deliberately wrong — every check_oracle call
#: must flag it.
BROKEN = AlgorithmSpec("wcc", Wcc, lambda edges: {"bogus": -1})


class TestChecksPassOnHealthyEngine:
    @pytest.mark.parametrize("mode", list(ExecutionMode))
    def test_oracle(self, collection, mode):
        assert check_oracle(collection, WCC, {}, mode) is None

    def test_workers(self, collection):
        assert check_workers(collection, WCC, {}) is None

    def test_permutation(self, collection):
        assert check_permutation(collection, WCC, {}, perm_seed=3) is None

    def test_checkpoint(self, collection):
        assert check_checkpoint(collection, WCC, {}, kill_at=2) is None

    def test_tracing(self, collection):
        assert check_tracing(collection, WCC, {}) is None

    def test_analysis(self, collection):
        assert check_analysis(collection, WCC, {}, perm_seed=5) is None

    def test_stream(self, collection):
        assert check_stream(collection, WCC, {}) is None

    @pytest.mark.parametrize("name", ["wcc", "degrees", "scc"])
    def test_engine(self, collection, name):
        assert check_engine(collection, ALGORITHMS[name], {}) is None

    def test_stream_vacuous_for_unservable_spec(self, collection):
        from repro.algorithms import ClusteringCoefficient

        # A spec whose name is not in the name table cannot register.
        unservable = AlgorithmSpec("not-in-the-table", ClusteringCoefficient,
                                   lambda edges: {})
        assert check_stream(collection, unservable, {}) is None


class TestChecksCatchViolations:
    def test_oracle_mismatch_reported_with_view(self, collection):
        mismatch = check_oracle(collection, BROKEN, {},
                                ExecutionMode.DIFF_ONLY)
        assert mismatch is not None
        assert mismatch.invariant == "oracle"
        assert mismatch.view is not None
        assert mismatch.check["mode"] == "diff-only"
        assert "wcc" in str(mismatch)

    def test_mismatch_check_is_rebuildable(self, collection):
        mismatch = check_oracle(collection, BROKEN, {},
                                ExecutionMode.ADAPTIVE)
        check = build_check(BROKEN, {}, mismatch.check)
        again = check(collection)
        assert again is not None and again.invariant == "oracle"
        # The same descriptor against the healthy spec passes.
        assert build_check(WCC, {}, mismatch.check)(collection) is None

    def test_build_check_rejects_unknown_invariant(self):
        with pytest.raises(GraphsurgeError):
            build_check(WCC, {}, {"invariant": "gremlins"})

    def test_stream_mismatch_is_rebuildable(self, collection):
        mismatch = check_stream(collection, BROKEN, {})
        assert mismatch is not None
        assert mismatch.invariant == "stream"
        assert "epoch 1" in mismatch.detail
        rebuilt = build_check(BROKEN, {}, mismatch.check)(collection)
        assert rebuilt is not None and rebuilt.invariant == "stream"
        assert build_check(WCC, {}, mismatch.check)(collection) is None

    def test_analysis_flags_error_findings(self, collection):
        from tests.analyze.test_gating import BadLoop

        unsound = AlgorithmSpec("wcc", BadLoop, lambda edges: {})
        mismatch = check_analysis(collection, unsound, {})
        assert mismatch is not None
        assert mismatch.invariant == "analysis"
        assert "GS-P102" in mismatch.detail
        # The recorded descriptor rebuilds the same check.
        rebuilt = build_check(unsound, {}, mismatch.check)(collection)
        assert rebuilt is not None and rebuilt.invariant == "analysis"
        assert build_check(WCC, {}, mismatch.check)(collection) is None


class TestEngineInvariant:
    """Defects that leave outputs right but the engine's state wrong
    are named by the per-epoch engine check."""

    def test_cancelled_slot_kept_as_empty_diff(self, collection,
                                               monkeypatch):
        def keep_empty_slots(self, time, diff):
            slot = self.entries.setdefault(time, {})
            for value, mult in diff.items():
                slot[value] = slot.get(value, 0) + mult
                if not slot[value]:
                    del slot[value]
            self._cache_time = None

        monkeypatch.setattr(KeyTrace, "update", keep_empty_slots)
        assert check_oracle(collection, WCC, {},
                            ExecutionMode.DIFF_ONLY) is None
        mismatch = check_engine(collection, WCC, {})
        assert mismatch is not None and mismatch.invariant == "engine"
        assert "stores an empty diff" in mismatch.detail
        assert mismatch.view is not None
        rebuilt = build_check(WCC, {}, mismatch.check)(collection)
        assert rebuilt is not None and rebuilt.invariant == "engine"

    def test_cache_that_skips_an_uncovered_time(self, collection,
                                                monkeypatch):
        accumulate = KeyTrace.accumulate
        calls = [0]

        def skipping(self, time):
            ct = self._cache_time
            if ct is not None and ct != time and leq(ct, time):
                calls[0] += 1
                if calls[0] % 7 == 0:
                    skipped = [s for s in self._uncovered if leq(s, time)]
                    self._uncovered.difference_update(skipped[:1])
            return accumulate(self, time)

        monkeypatch.setattr(KeyTrace, "accumulate", skipping)
        # The defect may surface as a wrong cache, a wrong reduce output
        # or the reduce guard's typed error; each is the engine mismatch.
        check = build_check(WCC, {}, {"invariant": "engine"})
        mismatch = check(collection)
        assert mismatch is not None and mismatch.invariant == "engine"
        assert "key" in mismatch.detail


class TestOutputMap:
    def test_happy_path(self):
        assert output_map({(1, 5): 1, (2, 7): 1}) == {1: 5, 2: 7}

    def test_multiplicity_corruption_raises(self):
        with pytest.raises(GraphsurgeError):
            output_map({(1, 5): 2})

    def test_duplicate_key_raises(self):
        with pytest.raises(GraphsurgeError):
            output_map({(1, 5): 1, (1, 6): 1})


class TestResolveAlgorithms:
    def test_default_is_all(self):
        assert {spec.name for spec in resolve_algorithms()} == \
            set(ALGORITHMS)

    def test_comma_string(self):
        specs = resolve_algorithms("wcc, bfs")
        assert [spec.name for spec in specs] == ["wcc", "bfs"]

    def test_unknown_name_rejected(self):
        with pytest.raises(GraphsurgeError):
            resolve_algorithms(["wcc", "nope"])

    def test_unknown_name_is_config_error_listing_registry(self):
        # Pins the exact error shape: a ConfigError (so CLI/serve config
        # handling applies) whose message names the offender and lists
        # every registered algorithm.
        with pytest.raises(ConfigError) as excinfo:
            resolve_algorithms(["nope"])
        message = str(excinfo.value)
        assert message == ("unknown fuzz algorithm 'nope'; known: "
                           + ", ".join(algorithm_names()))
        for name in ALGORITHMS:
            assert name in message

    def test_empty_selection_is_config_error(self):
        with pytest.raises(ConfigError):
            resolve_algorithms("  ,  ")

    def test_pack_is_registered(self):
        for name in ("labelprop", "ppr", "ktruss", "score"):
            assert name in ALGORITHMS
