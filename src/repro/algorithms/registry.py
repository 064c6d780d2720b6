"""The one name table: every runnable computation, by request name.

The CLI (``run``/``profile``/``stream``), the serve daemon (``/run``,
``/stream``), the stream engine and the fuzzer's oracle registry all
resolve a computation name through :data:`ALGORITHMS`, so a name that
works on one surface works on all of them. Each surface keeps its own
error type by passing ``error=`` to :func:`build_computation`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Mapping, Optional, Tuple, Type

from repro.algorithms.bellman_ford import BellmanFord
from repro.algorithms.bfs import Bfs
from repro.algorithms.clustering import ClusteringCoefficient
from repro.algorithms.degrees import MaxDegree, OutDegrees
from repro.algorithms.kcore import KCore
from repro.algorithms.ktruss import KTruss
from repro.algorithms.label_propagation import LabelPropagation
from repro.algorithms.mpsp import Mpsp
from repro.algorithms.pagerank import PageRank
from repro.algorithms.ppr import PersonalizedPageRank
from repro.algorithms.scc import Scc
from repro.algorithms.scoring import CompositeScore
from repro.algorithms.triangles import Triangles
from repro.algorithms.wcc import Wcc
from repro.core.computation import GraphComputation
from repro.errors import GraphsurgeError, RequestError

#: How each request parameter is normalized before it reaches a factory
#: (request bodies carry JSON, the CLI carries parsed flags).
PARAM_TYPES: Dict[str, Callable[[Any], Any]] = {
    "source": lambda value: value,
    "iterations": int,
    "k": int,
    "rounds": int,
    "pairs": lambda value: [(int(src), int(dst)) for src, dst in value],
    "seeds": lambda value: [int(seed) for seed in value],
    "degree_weight": int,
    "triangle_weight": int,
    "rank_weight": int,
}


@dataclass(frozen=True)
class Algorithm:
    """One table row: canonical name, factory, accepted params, aliases."""

    name: str
    #: ``factory(**params)`` builds the computation; the keyword names
    #: are exactly the keys of ``params``.
    factory: Callable[..., GraphComputation]
    #: Accepted request parameters with their defaults.
    params: Mapping[str, Any] = field(default_factory=dict)
    aliases: Tuple[str, ...] = ()


_TABLE = (
    Algorithm("wcc", Wcc),
    Algorithm("scc", Scc),
    Algorithm("bfs", Bfs, {"source": None}),
    Algorithm("sssp", BellmanFord, {"source": None},
              aliases=("bf", "bellman-ford")),
    Algorithm("pagerank", PageRank, {"iterations": 10}, aliases=("pr",)),
    Algorithm("mpsp", Mpsp, {"pairs": ()}),
    Algorithm("kcore", KCore, {"k": 2}),
    Algorithm("triangles", Triangles),
    Algorithm("clustering", ClusteringCoefficient),
    Algorithm("degrees", OutDegrees),
    Algorithm("maxdegree", MaxDegree),
    # Community & scoring pack (docs/algorithms.md).
    Algorithm("labelprop", LabelPropagation, {"rounds": 8},
              aliases=("lpa",)),
    Algorithm("ppr", PersonalizedPageRank,
              {"seeds": (), "iterations": 10}),
    Algorithm("ktruss", KTruss, {"k": 3}),
    Algorithm("score", CompositeScore,
              {"degree_weight": 1, "triangle_weight": 1, "rank_weight": 1,
               "iterations": 5}),
)

#: Canonical name → table row.
ALGORITHMS: Dict[str, Algorithm] = {entry.name: entry for entry in _TABLE}

#: Every accepted spelling (canonical names and aliases) → table row.
NAMES: Dict[str, Algorithm] = {
    spelling: entry for entry in _TABLE
    for spelling in (entry.name,) + entry.aliases}


def build_computation(name: str, params: Optional[Dict[str, Any]] = None,
                      error: Type[GraphsurgeError] = GraphsurgeError
                      ) -> GraphComputation:
    """Instantiate a computation from a name + parameter dict.

    Any parameter some algorithm accepts is legal; ones the named
    algorithm does not take are ignored (the CLI hands over every flag it
    parsed). Unknown names and parameters raise ``error``; a factory's
    own validation errors propagate unchanged.
    """
    params = params or {}
    if not isinstance(params, dict):
        raise error("'params' must be a JSON object")
    unknown = set(params) - set(PARAM_TYPES)
    if unknown:
        raise error(f"unknown computation parameter(s): {sorted(unknown)}")
    entry = NAMES.get(str(name).lower())
    if entry is None:
        raise error(f"unknown computation {name!r}; expected one of "
                    f"{sorted(NAMES)}")
    return entry.factory(**{
        key: PARAM_TYPES[key](params.get(key, default))
        for key, default in entry.params.items()})


def build_request_computation(name: str,
                              params: Optional[Dict[str, Any]] = None
                              ) -> GraphComputation:
    """:func:`build_computation` for request surfaces (serve, stream):
    a bad name or parameter is a :class:`~repro.errors.RequestError`."""
    return build_computation(name, params, error=RequestError)


def computation_signature(name: str,
                          params: Optional[Dict[str, Any]] = None) -> str:
    """A canonical string identity for (computation, parameters)."""
    return json.dumps({"computation": str(name).lower(),
                       "params": params or {}},
                      sort_keys=True, separators=(",", ":"))
