"""The one name table: every runnable computation, by request name.

Every surface (the CLI, the serve daemon, the stream engine, the fuzzer)
resolves a request ``(name, params)`` here with :func:`resolve`: the row
from any alias or letter case, each parameter typed (text included), and
the :attr:`Request.signature` that names one computation however it was
spelled. Each surface passes its own error type as ``error=``.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple, Type

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


def _items(value, convert) -> tuple:
    """A list parameter: a sequence, or text split at ``,`` or ``;``."""
    if isinstance(value, str):
        value = [item for item in re.split(r"[,;]", value) if item.strip()]
    return tuple(convert(item) for item in value)


def _pair(item) -> Tuple[int, int]:
    """A ``(src, dst)`` pair, or its text with ``:`` or ``-`` inside."""
    src, dst = re.split(r"[:-]", item) if isinstance(item, str) else item
    return int(src), int(dst)


#: Each request parameter's type: it normalizes a JSON value and parses
#: the text a CLI flag or stream query carries, so ``3`` and ``"3"``,
#: ``"1:5,1:9"`` and ``"1-5;1-9"`` resolve alike.
PARAM_TYPES: Dict[str, Callable[[Any], Any]] = {
    "source": lambda value: None if value is None else int(value),
    "iterations": int,
    "k": int,
    "rounds": int,
    "pairs": lambda value: _items(value, _pair),
    "seeds": lambda value: _items(value, int),
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
    #: Accepted request parameters with their defaults, each written as
    #: its :data:`PARAM_TYPES` type returns it.
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


@dataclass(frozen=True)
class Request:
    """A request resolved against the table: its row and the parameters
    whose typed value differs from the row's default."""

    entry: Algorithm
    params: Dict[str, Any]

    @property
    def signature(self) -> str:
        """The computation's identity: canonical name plus ``params`` as
        canonical JSON, whatever spelling the request used."""
        return json.dumps({"computation": self.entry.name,
                           "params": self.params},
                          sort_keys=True, separators=(",", ":"))

    def build(self) -> GraphComputation:
        return self.entry.factory(**{**self.entry.params, **self.params})


def canonical_name(name: Any) -> Optional[str]:
    """The row name for any spelling (alias, letter case), else None."""
    entry = NAMES.get(str(name).lower())
    return None if entry is None else entry.name


def resolve(name: Any, params: Optional[Dict[str, Any]] = None,
            error: Type[GraphsurgeError] = GraphsurgeError) -> Request:
    """Resolve a request against the table. Parameters the row does not
    take are ignored; unknown names and parameters, and values a type
    cannot parse, raise ``error``. Factories validate in ``build``."""
    params = params or {}
    if not isinstance(params, dict):
        raise error("'params' must be a JSON object")
    unknown = set(params) - set(PARAM_TYPES)
    if unknown:
        raise error(f"unknown computation parameter(s): {sorted(unknown)}")
    entry = ALGORITHMS.get(canonical_name(name))
    if entry is None:
        raise error(f"unknown computation {name!r}; expected one of "
                    f"{sorted(NAMES)}")
    chosen = {}
    for key, default in entry.params.items():
        if key not in params:
            continue
        try:
            value = PARAM_TYPES[key](params[key])
        except (TypeError, ValueError):
            raise error(f"computation parameter {key!r} cannot be "
                        f"{params[key]!r}") from None
        if value != default:
            chosen[key] = value
    return Request(entry, chosen)


def flag_params(flags: Mapping[str, Any]) -> Dict[str, Any]:
    """The table parameters among parsed CLI flags that were given."""
    return {key: flags[key] for key in PARAM_TYPES
            if flags.get(key) is not None}


def query_entries(raw, error: Type[GraphsurgeError] = GraphsurgeError
                  ) -> List[Tuple[str, Dict[str, Any]]]:
    """Query entries, each a name or ``[name, params?]``, as ``(name,
    params)`` pairs; a malformed entry raises ``error``."""
    out = []
    for item in raw:
        entry = (item,) if isinstance(item, str) else item
        if isinstance(entry, (list, tuple)) and len(entry) == 1:
            entry = (entry[0], {})
        if (not isinstance(entry, (list, tuple)) or len(entry) != 2
                or not isinstance(entry[0], str)
                or not isinstance(entry[1], dict)):
            raise error(f"'queries' entries must be a computation name or "
                        f"[name, params?] with object params, got {item!r}")
        out.append((entry[0], entry[1]))
    return out


def build_computation(name: str, params: Optional[Dict[str, Any]] = None,
                      error: Type[GraphsurgeError] = GraphsurgeError
                      ) -> GraphComputation:
    """Instantiate a computation from a name + parameter dict."""
    return resolve(name, params, error).build()


def build_request_computation(name: str,
                              params: Optional[Dict[str, Any]] = None
                              ) -> GraphComputation:
    """:func:`build_computation` for request surfaces (serve, stream):
    a bad name or parameter is a :class:`~repro.errors.RequestError`."""
    return build_computation(name, params, error=RequestError)


def computation_signature(name: str,
                          params: Optional[Dict[str, Any]] = None) -> str:
    """The signature of a request (see :attr:`Request.signature`); a bad
    name or parameter is a :class:`~repro.errors.RequestError`."""
    return resolve(name, params, RequestError).signature
