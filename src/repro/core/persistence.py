"""Persistence for materialized view collections.

The paper's Storage Manager persists views and collections so analytics can
run in later sessions without re-materializing. We serialize a
:class:`MaterializedCollection` to a compact JSON document: edge tuples are
interned into a table and difference sets reference them by index.

Format v2 (current) hardens the v1 format for production use:

* **Atomic writes** — the document is written to a temp file in the target
  directory and moved into place with ``os.replace``, so a crash mid-save
  never leaves a half-written collection behind.
* **Checksummed payload** — the envelope embeds a sha256 of the canonical
  payload JSON; :func:`load_collection` verifies it and rejects silently
  corrupted files.
* **Optional gzip** — pass ``compress=True`` (or a ``.gz`` path) to store
  the envelope gzipped; loading auto-detects the gzip magic.

v1 files (plain document, no checksum) still load. Every malformed-document
shape — missing keys, non-list diffs, out-of-range edge indexes — surfaces
as :class:`StoreError` naming the offending path.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import os
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.core.view_collection import MaterializedCollection
from repro.errors import StoreError

PathLike = Union[str, Path]

_FORMAT_VERSION = 2
_GZIP_MAGIC = b"\x1f\x8b"


def atomic_write_bytes(path: PathLike, data: bytes) -> None:
    """Write ``data`` to ``path`` atomically (temp file + ``os.replace``).

    The temp file lives in the target directory so the replace never
    crosses filesystems; a crash mid-write leaves the old file intact and
    never a half-written new one. Shared by collection persistence, the
    benchmark-baseline writer, and the Chrome-trace exporter.
    """
    path = Path(path)
    tmp = path.with_name(path.name + f".tmp.{os.getpid()}")
    try:
        tmp.write_bytes(data)
        os.replace(tmp, path)
    finally:
        if tmp.exists():  # pragma: no cover - only on a failed replace
            tmp.unlink()


def atomic_write_text(path: PathLike, text: str,
                      encoding: str = "utf-8") -> None:
    """Text-mode convenience wrapper around :func:`atomic_write_bytes`."""
    atomic_write_bytes(path, text.encode(encoding))


def _canonical_payload(payload: dict) -> bytes:
    return json.dumps(payload, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")


def _payload_digest(payload: dict) -> str:
    return hashlib.sha256(_canonical_payload(payload)).hexdigest()


def collection_payload(collection: MaterializedCollection) -> dict:
    """The JSON-ready payload dict for a collection.

    Edge tuples are interned into a table and difference sets reference
    them by index. Shared by :func:`save_collection` and the fuzzer's
    repro files (:mod:`repro.verify.replay`), which embed a collection
    inside a larger envelope.
    """
    edge_index: Dict[tuple, int] = {}
    edge_table: List[list] = []
    diffs_encoded = []
    for diff in collection.diffs:
        encoded = []
        for edge, mult in diff.items():
            index = edge_index.get(edge)
            if index is None:
                index = len(edge_table)
                edge_index[edge] = index
                edge_table.append(list(edge))
            encoded.append([index, mult])
        diffs_encoded.append(encoded)
    return {
        "name": collection.name,
        "source": collection.source,
        "view_names": collection.view_names,
        "edges": edge_table,
        "diffs": diffs_encoded,
        "creation_seconds": collection.creation_seconds,
    }


def collection_from_payload(payload: dict) -> MaterializedCollection:
    """Rebuild a collection from a :func:`collection_payload` dict.

    Raises :class:`StoreError` on any structurally malformed payload.
    """
    try:
        return _decode_payload(payload)
    except (KeyError, TypeError, ValueError, IndexError) as error:
        raise StoreError(
            f"malformed collection payload: "
            f"{type(error).__name__}: {error}") from None


def save_collection(collection: MaterializedCollection,
                    path: PathLike,
                    compress: Optional[bool] = None) -> None:
    """Write a collection's difference stream and metadata to ``path``.

    ``compress`` gzips the document; when ``None`` it is inferred from a
    ``.gz`` suffix. The write is atomic (temp file + ``os.replace``).
    """
    path = Path(path)
    if compress is None:
        compress = path.suffix == ".gz"
    payload = collection_payload(collection)
    envelope = {
        "format": _FORMAT_VERSION,
        "sha256": _payload_digest(payload),
        "payload": payload,
    }
    data = json.dumps(envelope).encode("utf-8")
    if compress:
        data = gzip.compress(data)
    atomic_write_bytes(path, data)


def load_collection(path: PathLike) -> MaterializedCollection:
    """Read a collection previously written by :func:`save_collection`.

    Reads both v2 (checksummed envelope, optionally gzipped) and legacy v1
    documents. Any unreadable, corrupted, or structurally malformed file
    raises :class:`StoreError` with the path in the message.
    """
    try:
        raw = Path(path).read_bytes()
        if raw[:2] == _GZIP_MAGIC:
            raw = gzip.decompress(raw)
        document = json.loads(raw.decode("utf-8"))
    except (OSError, EOFError, ValueError) as error:
        raise StoreError(f"cannot read collection from {path}: {error}") \
            from None
    if not isinstance(document, dict):
        raise StoreError(
            f"malformed collection document in {path}: expected a JSON "
            f"object, got {type(document).__name__}")
    version = document.get("format")
    if version == _FORMAT_VERSION:
        payload = document.get("payload")
        if not isinstance(payload, dict):
            raise StoreError(
                f"malformed collection document in {path}: v2 envelope "
                f"has no payload object")
        expected = document.get("sha256")
        actual = _payload_digest(payload)
        if expected != actual:
            raise StoreError(
                f"collection {path} failed checksum verification "
                f"(stored {expected!r}, computed {actual!r}): the file is "
                f"corrupted")
    elif version == 1:
        payload = document
    else:
        raise StoreError(
            f"unsupported collection format {version!r} in {path}")
    try:
        return _decode_payload(payload)
    except (KeyError, TypeError, ValueError, IndexError) as error:
        raise StoreError(
            f"malformed collection document in {path}: "
            f"{type(error).__name__}: {error}") from None


def _decode_payload(payload: dict) -> MaterializedCollection:
    edge_table = [tuple(edge) for edge in payload["edges"]]
    diffs = []
    for encoded in payload["diffs"]:
        diffs.append({edge_table[index]: mult for index, mult in encoded})
    return MaterializedCollection.from_diffs(
        payload["name"], payload["source"], payload["view_names"], diffs,
        creation_seconds=float(payload.get("creation_seconds", 0.0)))
