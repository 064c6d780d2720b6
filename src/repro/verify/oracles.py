"""The oracle registry: every dataflow algorithm paired with its
plain-Python reference and a deterministic parameter sampler.

The uniform contract (see :mod:`repro.algorithms.reference`):

* ``spec.factory(**params)`` builds the dataflow computation;
* ``spec.oracle(edges, **params)`` computes the expected ``{key: value}``
  map from a view's edge list;

with the *same* ``params`` dict for both sides, so the fuzz runner can
cross-check any algorithm without algorithm-specific glue.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.algorithms import registry
from repro.algorithms.reference import (
    reference_bellman_ford,
    reference_bfs,
    reference_clustering,
    reference_composite_score,
    reference_kcore,
    reference_ktruss,
    reference_label_propagation,
    reference_max_degree,
    reference_mpsp,
    reference_out_degrees,
    reference_pagerank,
    reference_personalized_pagerank,
    reference_scc,
    reference_triangles,
    reference_wcc,
    view_edge_list,
)
from repro.core.computation import GraphComputation
from repro.core.resilience import encode_value
from repro.errors import ConfigError, GraphsurgeError


def _no_params(rng: random.Random, vertices: Sequence[int]) -> dict:
    return {}


def _source_param(rng: random.Random, vertices: Sequence[int]) -> dict:
    # Half the runs exercise the dynamic default (per-view minimum source),
    # half a fixed source that may be absent from some views.
    if not vertices or rng.random() < 0.5:
        return {"source": None}
    return {"source": rng.choice(vertices)}


def _pagerank_params(rng: random.Random, vertices: Sequence[int]) -> dict:
    return {"iterations": rng.randint(3, 6)}


def _kcore_params(rng: random.Random, vertices: Sequence[int]) -> dict:
    return {"k": rng.randint(2, 3)}


def _mpsp_params(rng: random.Random, vertices: Sequence[int]) -> dict:
    if len(vertices) < 2:
        return {"pairs": [(0, 1)]}
    pairs = set()
    for _ in range(rng.randint(2, 4)):
        src, dst = rng.sample(vertices, 2)
        pairs.add((src, dst))
    return {"pairs": sorted(pairs)}


def _lpa_params(rng: random.Random, vertices: Sequence[int]) -> dict:
    return {"rounds": rng.randint(3, 8)}


def _ppr_params(rng: random.Random, vertices: Sequence[int]) -> dict:
    if not vertices:
        return {"seeds": [0], "iterations": rng.randint(3, 6)}
    seeds = set(rng.sample(vertices, min(len(vertices), rng.randint(1, 3))))
    if rng.random() < 0.25:
        # Exercise seed normalization: a seed absent from every view.
        seeds.add(max(vertices) + 7)
    return {"seeds": sorted(seeds), "iterations": rng.randint(3, 6)}


def _ktruss_params(rng: random.Random, vertices: Sequence[int]) -> dict:
    return {"k": rng.randint(2, 4)}


def _score_params(rng: random.Random, vertices: Sequence[int]) -> dict:
    return {
        "degree_weight": rng.randint(0, 3),
        "triangle_weight": rng.randint(0, 3),
        "rank_weight": rng.randint(0, 3),
        "iterations": rng.randint(2, 5),
    }


@dataclass(frozen=True)
class AlgorithmSpec:
    """One fuzzable algorithm: dataflow factory + oracle + param sampler."""

    name: str
    factory: Callable[..., GraphComputation]
    oracle: Callable[..., Dict[Any, Any]]
    sample_params: Callable[[random.Random, Sequence[int]], dict] = \
        field(default=_no_params)

    def computation(self, params: dict) -> GraphComputation:
        return self.factory(**params)

    def expected(self, triples: List[Tuple[int, int, int]],
                 params: dict) -> Dict[Any, Any]:
        return self.oracle(triples, **params)


def _spec(name: str, oracle: Callable[..., Dict[Any, Any]],
          sample_params=_no_params) -> AlgorithmSpec:
    """An oracle for a row of the name table (which owns the factory)."""
    return AlgorithmSpec(name, registry.ALGORITHMS[name].factory, oracle,
                         sample_params)


#: Every oracle-backed algorithm, keyed by its fuzzer name.
ALGORITHMS: Dict[str, AlgorithmSpec] = {
    spec.name: spec for spec in (
        _spec("wcc", reference_wcc),
        _spec("bfs", reference_bfs, _source_param),
        _spec("sssp", reference_bellman_ford, _source_param),
        _spec("pagerank", reference_pagerank, _pagerank_params),
        _spec("scc", reference_scc),
        _spec("kcore", reference_kcore, _kcore_params),
        _spec("triangles", reference_triangles),
        _spec("clustering", reference_clustering),
        _spec("degrees", reference_out_degrees),
        _spec("maxdegree", reference_max_degree),
        _spec("mpsp", reference_mpsp, _mpsp_params),
        # The community & scoring pack (docs/algorithms.md).
        _spec("labelprop", reference_label_propagation, _lpa_params),
        _spec("ppr", reference_personalized_pagerank, _ppr_params),
        _spec("ktruss", reference_ktruss, _ktruss_params),
        _spec("score", reference_composite_score, _score_params),
    )
}


def algorithm_names() -> List[str]:
    return sorted(ALGORITHMS)


def resolve_algorithms(names: Optional[Sequence[str]] = None
                       ) -> List[AlgorithmSpec]:
    """Specs for ``names`` (or all); accepts a comma-separated string."""
    if names is None:
        return [ALGORITHMS[name] for name in algorithm_names()]
    if isinstance(names, str):
        names = [part.strip() for part in names.split(",") if part.strip()]
    specs = []
    for name in names:
        spec = ALGORITHMS.get(registry.canonical_name(name))
        if spec is None:
            raise ConfigError(
                f"unknown fuzz algorithm {name!r}; known: "
                f"{', '.join(algorithm_names())}")
        specs.append(spec)
    if not specs:
        raise ConfigError("no fuzz algorithms selected")
    return specs


# -- output canonicalization -------------------------------------------------


def output_map(diff: Dict[Any, int]) -> Dict[Any, Any]:
    """Render an output difference set as ``{key: value}``.

    Raises :class:`GraphsurgeError` when a record has multiplicity != 1
    or a key carries several values — both are result corruptions the
    fuzzer must surface, not mask.
    """
    out: Dict[Any, Any] = {}
    for record, mult in diff.items():
        try:
            key, value = record
        except (TypeError, ValueError):
            raise GraphsurgeError(
                f"output record {record!r} is not a (key, value) pair"
            ) from None
        if mult != 1:
            raise GraphsurgeError(
                f"output record {record!r} has multiplicity {mult}")
        if key in out:
            raise GraphsurgeError(
                f"key {key!r} has several values: {out[key]!r} and "
                f"{value!r}")
        out[key] = value
    return out


def canonical_diff(diff: Dict[Any, int]) -> str:
    """A byte-stable rendering of a difference set, for exact comparisons."""
    entries = [[encode_value(record), mult] for record, mult in diff.items()]
    entries.sort(key=lambda entry: json.dumps(entry, sort_keys=True,
                                              default=str))
    return json.dumps(entries, sort_keys=True, default=str)


def describe_map_mismatch(got: Dict[Any, Any],
                          want: Dict[Any, Any]) -> Optional[str]:
    """Human-readable delta between two result maps (None when equal)."""
    if got == want:
        return None
    missing = {k: want[k] for k in want if k not in got}
    extra = {k: got[k] for k in got if k not in want}
    wrong = {k: (got[k], want[k]) for k in want
             if k in got and got[k] != want[k]}
    parts = []
    if missing:
        parts.append(f"missing {_preview(missing)}")
    if extra:
        parts.append(f"unexpected {_preview(extra)}")
    if wrong:
        parts.append("wrong value (got, want) " + _preview(wrong))
    return "; ".join(parts)


def _preview(mapping: Dict[Any, Any]) -> str:
    """The first four entries of ``mapping`` and its size."""
    items = sorted(mapping.items(), key=repr)[:4]
    text = ", ".join(f"{k!r}: {v!r}" for k, v in items)
    suffix = ", ..." if len(mapping) > 4 else ""
    return f"{{{text}{suffix}}} ({len(mapping)} entries)"


__all__ = [
    "ALGORITHMS",
    "AlgorithmSpec",
    "algorithm_names",
    "canonical_diff",
    "describe_map_mismatch",
    "output_map",
    "resolve_algorithms",
    "view_edge_list",
]

