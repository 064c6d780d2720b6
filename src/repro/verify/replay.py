"""Replayable repro files for fuzzer failures.

A repro file is one checksummed JSON document pinning everything needed
to re-run a violated check: the (shrunk) collection, the algorithm and
its sampled parameters, the exact check descriptor, and provenance (the
iteration seed, generation kind, optional GVDL text). Written through
the same atomic-write helper as collection persistence, so a crash
mid-report never leaves a torn file.

Replay (``python -m repro.cli fuzz --replay FILE``) rebuilds the check
via :func:`repro.verify.invariants.build_check` and reports whether the
mismatch still reproduces on the current code.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Optional, Union

from repro.core.persistence import (
    atomic_write_text,
    collection_from_payload,
    collection_payload,
)
from repro.core.resilience import (
    _canonical,
    _digest,
    decode_value,
    encode_value,
)
from repro.core.view_collection import MaterializedCollection
from repro.errors import StoreError
from repro.verify.invariants import Mismatch, build_check
from repro.verify.oracles import ALGORITHMS

PathLike = Union[str, Path]

REPRO_FORMAT = 1


@dataclass
class ReproFile:
    """A loaded (or to-be-written) fuzzer repro."""

    seed: int
    kind: str
    algorithm: str
    params: Dict[str, Any]
    check: Dict[str, Any]
    detail: str
    collection: MaterializedCollection
    gvdl_text: Optional[str] = None
    shrink_info: Dict[str, Any] = field(default_factory=dict)
    #: Static-analysis verdict of the failing plan
    #: (``AnalysisReport.to_dict()``), recorded by the fuzz runner so a
    #: repro carries the analyzer's view of the plan it pins.
    analysis: Optional[Dict[str, Any]] = None


def write_repro(path: PathLike, repro: ReproFile) -> Path:
    """Atomically persist a repro file; returns the written path."""
    payload = {
        "seed": repro.seed,
        "kind": repro.kind,
        "algorithm": repro.algorithm,
        "params": {name: encode_value(value)
                   for name, value in repro.params.items()},
        "check": repro.check,
        "detail": repro.detail,
        "collection": collection_payload(repro.collection),
        "gvdl_text": repro.gvdl_text,
        "shrink_info": repro.shrink_info,
        "analysis": repro.analysis,
    }
    envelope = {
        "format": REPRO_FORMAT,
        "sha256": _digest(_canonical(payload)),
        "payload": payload,
    }
    path = Path(path)
    atomic_write_text(path, json.dumps(envelope, indent=1, sort_keys=True))
    return path


def load_repro(path: PathLike) -> ReproFile:
    """Read and checksum-verify a repro file."""
    try:
        document = json.loads(Path(path).read_text())
    except (OSError, ValueError) as error:
        raise StoreError(f"cannot read repro file {path}: {error}") \
            from None
    if not isinstance(document, dict) or \
            document.get("format") != REPRO_FORMAT:
        raise StoreError(
            f"unsupported repro format in {path}: "
            f"{document.get('format') if isinstance(document, dict) else document!r}")
    payload = document.get("payload")
    if not isinstance(payload, dict):
        raise StoreError(f"malformed repro file {path}: no payload object")
    if document.get("sha256") != _digest(_canonical(payload)):
        raise StoreError(f"repro file {path} failed checksum verification: "
                         f"the file is corrupted")
    try:
        return ReproFile(
            seed=int(payload["seed"]),
            kind=payload["kind"],
            algorithm=payload["algorithm"],
            params={name: decode_value(value)
                    for name, value in payload["params"].items()},
            check=dict(payload["check"]),
            detail=payload.get("detail", ""),
            collection=collection_from_payload(payload["collection"]),
            gvdl_text=payload.get("gvdl_text"),
            shrink_info=dict(payload.get("shrink_info", {})),
            analysis=payload.get("analysis"),
        )
    except (KeyError, TypeError, ValueError, AttributeError) as error:
        raise StoreError(f"malformed repro file {path}: "
                         f"{type(error).__name__}: {error}") from None


def replay_repro(source: Union[PathLike, ReproFile]) -> Optional[Mismatch]:
    """Re-run a repro's exact check; ``None`` means it no longer fails."""
    repro = source if isinstance(source, ReproFile) else load_repro(source)
    spec = ALGORITHMS.get(repro.algorithm)
    if spec is None:
        raise StoreError(f"repro references unknown algorithm "
                         f"{repro.algorithm!r}")
    # JSON round-trips mpsp's pair tuples through decode_value, but a
    # params dict assembled by hand may still hold lists; normalize.
    params = {name: _normalize_param(value)
              for name, value in repro.params.items()}
    check = build_check(spec, params, repro.check)
    return check(repro.collection)


def _normalize_param(value: Any) -> Any:
    if isinstance(value, list):
        return [_normalize_param(item) for item in value]
    return value
