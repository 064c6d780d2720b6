"""Persistence helpers: atomic file writes and the collection payload.

:func:`atomic_write_bytes` writes through a temp file and ``os.replace``,
so a crash mid-write never leaves a half-written file behind.
:func:`collection_payload` turns a :class:`MaterializedCollection` into a
compact JSON-ready dict — edge tuples are interned into a table and
difference sets reference them by index — and
:func:`collection_from_payload` reverses it, raising :class:`StoreError`
on any malformed shape.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Dict, List, Union

from repro.core.view_collection import MaterializedCollection
from repro.errors import StoreError

PathLike = Union[str, Path]


def atomic_write_bytes(path: PathLike, data: bytes) -> None:
    """Write ``data`` to ``path`` atomically (temp file + ``os.replace``).

    The temp file lives in the target directory so the replace never
    crosses filesystems; a crash mid-write leaves the old file intact and
    never a half-written new one. Shared by the fuzzer's repro files, the
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


def atomic_write_text(path: PathLike, text: str) -> None:
    """UTF-8 text-mode wrapper around :func:`atomic_write_bytes`."""
    atomic_write_bytes(path, text.encode("utf-8"))


def collection_payload(collection: MaterializedCollection) -> dict:
    """The JSON-ready payload dict for a collection.

    Edge tuples are interned into a table and difference sets reference
    them by index. The fuzzer's repro files (:mod:`repro.verify.replay`)
    embed it inside a larger envelope.
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
        edge_table = [tuple(edge) for edge in payload["edges"]]
        diffs = [{edge_table[index]: mult for index, mult in encoded}
                 for encoded in payload["diffs"]]
        return MaterializedCollection.from_diffs(
            payload["name"], payload["source"], payload["view_names"], diffs,
            creation_seconds=float(payload.get("creation_seconds", 0.0)))
    except (KeyError, TypeError, ValueError, IndexError) as error:
        raise StoreError(
            f"malformed collection payload: "
            f"{type(error).__name__}: {error}") from None
