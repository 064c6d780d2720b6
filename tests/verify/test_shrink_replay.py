"""Shrinking and repro files: minimization, persistence, replay."""

import json

import pytest

from repro.algorithms import Wcc
from repro.core.resilience import _canonical, _digest
from repro.errors import StoreError
from repro.verify.generator import random_churn_collection
from repro.verify.invariants import build_check
from repro.verify.oracles import AlgorithmSpec
from repro.verify.replay import (
    ReproFile,
    load_repro,
    replay_repro,
    write_repro,
)
from repro.verify.shrinker import _valid_stream, shrink

#: An oracle that is wrong whenever vertex 1 has an outgoing edge — the
#: shrinker should strip everything else away.
BROKEN = AlgorithmSpec(
    "wcc", Wcc,
    lambda edges: {"bad": 1} if any(src == 1 for src, _d, _w in edges)
    else {})

CHECK = {"invariant": "oracle", "mode": "diff-only", "workers": 1}


def _failing_setup():
    collection = random_churn_collection(seed=21, num_views=5,
                                         num_nodes=8, churn=5)
    check = build_check(BROKEN, {}, CHECK)
    if check(collection) is None:  # pragma: no cover - seed guard
        pytest.skip("seed 21 no longer triggers the planted oracle bug")
    return collection, check


class TestShrink:
    def test_minimizes_while_still_failing(self):
        collection, check = _failing_setup()
        result = shrink(collection, check)
        assert result.mismatch.invariant == "oracle"
        assert check(result.collection) is not None
        assert result.collection.num_views <= collection.num_views
        assert result.collection.total_diffs <= collection.total_diffs
        # The planted bug needs only one view with one edge out of 1.
        assert result.collection.num_views == 1
        assert result.collection.total_diffs == 1

    def test_refuses_passing_check(self):
        collection = random_churn_collection(seed=21, num_views=3)
        with pytest.raises(ValueError):
            shrink(collection, lambda _collection: None)

    def test_valid_stream_guard(self):
        ok = [{("e", 1, 2, 1): 1}, {("e", 1, 2, 1): -1}]
        assert _valid_stream(ok)
        # Dropping the addition leaves a dangling removal.
        assert not _valid_stream([{}, {("e", 1, 2, 1): -1}])


class TestReproFiles:
    def _repro(self):
        collection, check = _failing_setup()
        result = shrink(collection, check)
        return ReproFile(seed=21, kind="churn", algorithm="wcc",
                         params={}, check=dict(CHECK),
                         detail=result.mismatch.detail,
                         collection=result.collection,
                         shrink_info={"views_dropped":
                                      result.views_dropped},
                         analysis={"ok": True, "findings": []})

    def test_round_trip(self, tmp_path):
        repro = self._repro()
        path = write_repro(tmp_path / "r.json", repro)
        loaded = load_repro(path)
        assert loaded.seed == 21
        assert loaded.algorithm == "wcc"
        assert loaded.check == CHECK
        assert loaded.collection.num_views == repro.collection.num_views
        assert loaded.collection.diffs == repro.collection.diffs
        assert loaded.shrink_info == repro.shrink_info
        assert loaded.analysis == {"ok": True, "findings": []}

    def test_checksum_rejects_tampering(self, tmp_path):
        path = write_repro(tmp_path / "r.json", self._repro())
        document = json.loads(path.read_text())
        document["payload"]["seed"] = 99
        path.write_text(json.dumps(document))
        with pytest.raises(StoreError, match="checksum"):
            load_repro(path)

    def test_unreadable_and_malformed_rejected(self, tmp_path):
        with pytest.raises(StoreError):
            load_repro(tmp_path / "absent.json")
        bad = tmp_path / "bad.json"
        bad.write_text("not json {")
        with pytest.raises(StoreError):
            load_repro(bad)
        bad.write_text(json.dumps({"format": 99}))
        with pytest.raises(StoreError, match="format"):
            load_repro(bad)

    def test_replay_unknown_algorithm_rejected(self, tmp_path):
        repro = self._repro()
        repro.algorithm = "not-an-algorithm"
        path = write_repro(tmp_path / "r.json", repro)
        with pytest.raises(StoreError, match="unknown algorithm"):
            replay_repro(path)

    def test_replay_passes_on_healthy_code(self, tmp_path):
        # The repro records the *descriptor*; replay runs it against the
        # session's real (healthy) ALGORITHMS registry, so it passes.
        path = write_repro(tmp_path / "r.json", self._repro())
        assert replay_repro(path) is None

    def test_replay_mpsp_params_survive_json(self, tmp_path):
        collection = random_churn_collection(seed=4, num_views=2,
                                             num_nodes=6, churn=3)
        repro = ReproFile(seed=4, kind="churn", algorithm="mpsp",
                          params={"pairs": [(0, 1), (2, 3)]},
                          check=dict(CHECK), detail="",
                          collection=collection)
        path = write_repro(tmp_path / "m.json", repro)
        assert load_repro(path).params == {"pairs": [(0, 1), (2, 3)]}
        assert replay_repro(path) is None


def _healthy_repro():
    collection = random_churn_collection(seed=4, num_views=3, num_nodes=6,
                                         churn=3)
    return ReproFile(seed=4, kind="churn", algorithm="wcc", params={},
                     check=dict(CHECK), detail="", collection=collection)


def _rewrite_payload(path, mutate):
    """Apply ``mutate`` to the payload and re-seal its checksum, so only
    the payload's shape can make loading fail."""
    document = json.loads(path.read_text())
    mutate(document["payload"])
    document["sha256"] = _digest(_canonical(document["payload"]))
    path.write_text(json.dumps(document))


class TestReproFileErrors:
    """Every unreadable or malformed repro file is a :class:`StoreError`
    naming the file, never a raw ``KeyError`` or ``JSONDecodeError``."""

    def test_missing_file(self, tmp_path):
        with pytest.raises(StoreError, match="cannot read"):
            load_repro(tmp_path / "nope.json")

    def test_garbage_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(StoreError, match="cannot read"):
            load_repro(path)

    def test_wrong_format_version(self, tmp_path):
        path = tmp_path / "v999.json"
        path.write_text('{"format": 999}')
        with pytest.raises(StoreError, match="unsupported repro format"):
            load_repro(path)

    def test_non_object_document_rejected(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(StoreError, match="unsupported repro format"):
            load_repro(path)

    def test_envelope_without_payload_rejected(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text('{"format": 1, "sha256": "00"}')
        with pytest.raises(StoreError, match="no payload object"):
            load_repro(path)

    def test_truncated_file_rejected(self, tmp_path):
        path = write_repro(tmp_path / "r.json", _healthy_repro())
        data = path.read_bytes()
        path.write_bytes(data[:len(data) // 2])
        with pytest.raises(StoreError, match=str(path)):
            load_repro(path)

    def test_corrupted_collection_fails_checksum(self, tmp_path):
        path = write_repro(tmp_path / "r.json", _healthy_repro())
        document = json.loads(path.read_text())
        document["payload"]["collection"]["view_names"][0] = "tampered"
        path.write_text(json.dumps(document))
        with pytest.raises(StoreError, match="checksum"):
            load_repro(path)

    def test_overwrite_leaves_no_temp_files(self, tmp_path):
        repro = _healthy_repro()
        write_repro(tmp_path / "r.json", repro)
        write_repro(tmp_path / "r.json", repro)  # overwrite in place
        assert [p.name for p in tmp_path.iterdir()] == ["r.json"]

    @pytest.mark.parametrize("mutate", [
        lambda p: p.pop("seed"),
        lambda p: p.pop("check"),
        lambda p: p.update(seed="not-a-number"),
        lambda p: p.update(params=[1, 2]),
    ], ids=["no-seed", "no-check", "seed-not-int", "params-not-dict"])
    def test_malformed_envelope_fields(self, tmp_path, mutate):
        path = write_repro(tmp_path / "r.json", _healthy_repro())
        _rewrite_payload(path, mutate)
        with pytest.raises(StoreError, match="malformed repro file"):
            load_repro(path)

    @pytest.mark.parametrize("mutate", [
        lambda c: c.pop("edges"),
        lambda c: c.pop("diffs"),
        lambda c: c.pop("name"),
        lambda c: c.update(diffs=123),
        lambda c: c.update(diffs=[[[999999, 1]]]),
        lambda c: c.update(diffs=[[[0]]]),
        lambda c: c.update(edges=[[1, 2], 7]),
    ], ids=["no-edges", "no-diffs", "no-name", "diffs-not-list",
            "edge-index-out-of-range", "short-entry", "edge-not-list"])
    def test_malformed_collections_surface_as_store_error(self, tmp_path,
                                                          mutate):
        path = write_repro(tmp_path / "r.json", _healthy_repro())
        _rewrite_payload(path, lambda payload: mutate(payload["collection"]))
        with pytest.raises(StoreError, match="malformed collection"):
            load_repro(path)
