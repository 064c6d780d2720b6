"""Collection payload round trips and the atomic-write helper."""

import json

import pytest

from repro.algorithms import Wcc
from repro.core.executor import AnalyticsExecutor, ExecutionMode
from repro.core.persistence import collection_from_payload, collection_payload
from repro.core.view_collection import ViewCollectionDefinition
from repro.errors import StoreError
from repro.gvdl.parser import parse


@pytest.fixture
def collection(call_graph):
    views = []
    for year in (2013, 2017, 2019):
        predicate = parse(
            f"create view v on g edges where year <= {year}").predicate
        views.append((f"y{year}", predicate))
    definition = ViewCollectionDefinition("hist", "Calls", tuple(views))
    return definition.materialize(call_graph)


def round_trip(collection):
    """Through JSON text, as a fuzzer repro file carries the payload."""
    return collection_from_payload(
        json.loads(json.dumps(collection_payload(collection))))


class TestRoundTrip:
    def test_metadata_preserved(self, collection):
        loaded = round_trip(collection)
        assert loaded.name == collection.name
        assert loaded.source == collection.source
        assert loaded.view_names == collection.view_names
        assert loaded.view_sizes == collection.view_sizes
        assert loaded.diff_sizes == collection.diff_sizes

    def test_diffs_identical(self, collection):
        assert round_trip(collection).diffs == collection.diffs

    def test_analytics_on_loaded_collection(self, collection):
        loaded = round_trip(collection)
        original = AnalyticsExecutor().run_on_collection(
            Wcc(), collection, mode=ExecutionMode.DIFF_ONLY,
            keep_outputs=True)
        reloaded = AnalyticsExecutor().run_on_collection(
            Wcc(), loaded, mode=ExecutionMode.DIFF_ONLY, keep_outputs=True)
        for left, right in zip(original.views, reloaded.views):
            assert left.output == right.output


class TestErrors:
    @pytest.mark.parametrize("mutate", [
        lambda p: p.pop("edges"),
        lambda p: p.pop("diffs"),
        lambda p: p.pop("name"),
        lambda p: p.update(diffs=123),
        lambda p: p.update(diffs=[[[999999, 1]]]),
        lambda p: p.update(diffs=[[[0]]]),
        lambda p: p.update(edges=[[1, 2], 7]),
    ], ids=["no-edges", "no-diffs", "no-name", "diffs-not-list",
            "edge-index-out-of-range", "short-entry", "edge-not-list"])
    def test_malformed_payloads_surface_as_store_error(self, collection,
                                                        mutate):
        payload = collection_payload(collection)
        mutate(payload)
        with pytest.raises(StoreError, match="malformed"):
            collection_from_payload(payload)


class TestAtomicWrite:
    """The shared atomic-replace helper (temp file + ``os.replace``)."""

    def test_bytes_round_trip(self, tmp_path):
        from repro.core.persistence import atomic_write_bytes

        path = tmp_path / "out.bin"
        atomic_write_bytes(path, b"payload")
        assert path.read_bytes() == b"payload"

    def test_text_round_trip(self, tmp_path):
        from repro.core.persistence import atomic_write_text

        path = tmp_path / "out.txt"
        atomic_write_text(path, "héllo\n")
        assert path.read_text(encoding="utf-8") == "héllo\n"

    def test_overwrites_existing_file(self, tmp_path):
        from repro.core.persistence import atomic_write_text

        path = tmp_path / "out.txt"
        path.write_text("old")
        atomic_write_text(path, "new")
        assert path.read_text() == "new"

    def test_no_temp_files_left_behind(self, tmp_path):
        from repro.core.persistence import atomic_write_text

        atomic_write_text(tmp_path / "out.txt", "x")
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]

    def test_failed_replace_preserves_target(self, tmp_path, monkeypatch):
        """A crash at replace time must leave the old file untouched and
        clean up the temp file — never a torn target."""
        import os as os_module

        import repro.core.persistence as persistence

        path = tmp_path / "out.txt"
        path.write_text("precious")

        def exploding_replace(src, dst):
            raise OSError("disk detached")

        monkeypatch.setattr(persistence.os, "replace", exploding_replace)
        with pytest.raises(OSError):
            persistence.atomic_write_text(path, "half-writ")
        monkeypatch.setattr(persistence.os, "replace", os_module.replace)
        assert path.read_text() == "precious"
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]
