"""Edge-stream sources: batches of appends/retracts feeding the engine.

A :class:`StreamBatch` is the unit of streaming ingestion: two multisets
of ``(src, dst, weight)`` triples, one appended and one retracted, that
the engine absorbs as a single dataflow epoch. Sources are plain lists
of batches (finite, deterministic, replayable — the same discipline as
the fuzzer's generated collections):

* :func:`churn_batches` — seeded random append/retract churn, the
  streaming twin of the fuzzer's churn grammar
  (:func:`repro.verify.generator.random_churn_collection`).
* :func:`replay_batches` — replay a property graph's edges in timestamp
  order as append-only batches (temporal replay).
* :func:`sliding_batches` — wrap an append-only source so each batch
  also *retracts* the edges that fall out of a sliding window of the
  last ``width`` batches (a cumulative window is the base source itself:
  nothing ever expires). Window semantics mirror
  :mod:`repro.core.windows`: sliding evicts, cumulative only grows.
* :func:`batches_from_collection` — view a materialized view
  collection's difference sets as a stream (what the fuzzer's stream
  invariant drives).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigError
from repro.graph.edge_stream import EdgeStream

#: One streamed edge: (src, dst, weight).
EdgeTriple = Tuple[int, int, int]


@dataclass(frozen=True)
class StreamBatch:
    """One ingestion step: edges appended and edges retracted."""

    appends: Tuple[EdgeTriple, ...] = ()
    retracts: Tuple[EdgeTriple, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "appends",
                           tuple(tuple(e) for e in self.appends))
        object.__setattr__(self, "retracts",
                           tuple(tuple(e) for e in self.retracts))

    @property
    def size(self) -> int:
        return len(self.appends) + len(self.retracts)

    def to_record(self) -> dict:
        """JSON-safe form (the stream journal's per-batch record)."""
        return {"appends": [list(e) for e in self.appends],
                "retracts": [list(e) for e in self.retracts]}

    @classmethod
    def from_record(cls, record: dict) -> "StreamBatch":
        return cls(appends=tuple(tuple(e) for e in record["appends"]),
                   retracts=tuple(tuple(e) for e in record["retracts"]))


def churn_batches(seed: int, epochs: int, num_nodes: int = 12,
                  churn: int = 4,
                  base_edges: int = 0) -> List[StreamBatch]:
    """Seeded random churn: each batch retracts and appends a few edges.

    Mirrors the fuzzer's churn grammar: edge identity is the
    ``(src, dst, weight)`` triple, retractions are sampled from the live
    set only (no invalid batches), weights are drawn from 1..5, and
    ~8% of batches are deliberate no-ops. The same seed always yields
    the same batches. ``base_edges`` edges are emitted in an initial
    append-only batch when positive.
    """
    if epochs <= 0:
        raise ConfigError("churn_batches: epochs must be positive")
    if num_nodes < 2:
        raise ConfigError("churn_batches: num_nodes must be at least 2")
    rng = random.Random(seed)
    current: Dict[Tuple[int, int], EdgeTriple] = {}

    def fresh_edges(count: int) -> List[EdgeTriple]:
        out = []
        for _ in range(count):
            u, v = rng.randrange(num_nodes), rng.randrange(num_nodes)
            if u == v or (u, v) in current:
                continue
            triple = (u, v, rng.randint(1, 5))
            current[(u, v)] = triple
            out.append(triple)
        return out

    batches: List[StreamBatch] = []
    if base_edges > 0:
        batches.append(StreamBatch(appends=tuple(fresh_edges(base_edges))))
    while len(batches) < epochs:
        if rng.random() < 0.08:
            batches.append(StreamBatch())  # deliberate no-op epoch
            continue
        removals = rng.randint(0, min(churn, len(current)))
        retracts = [current.pop(pair)
                    for pair in rng.sample(sorted(current), removals)]
        appends = fresh_edges(rng.randint(0, churn))
        batches.append(StreamBatch(appends=tuple(appends),
                                   retracts=tuple(retracts)))
    return batches


def replay_batches(graph, prop: str = "ts", num_batches: int = 10,
                   weight: Optional[str] = None) -> List[StreamBatch]:
    """Replay a property graph's edges in ``prop`` order, append-only.

    Edges are sorted by the integer property ``prop`` (ties broken by
    endpoint ids, so replay is deterministic) and chunked into
    ``num_batches`` nearly equal batches — temporal ingestion of a graph
    that was recorded with timestamps. Weights are read as
    :meth:`repro.graph.edge_stream.EdgeStream.from_graph` reads them.
    """
    if num_batches <= 0:
        raise ConfigError("replay_batches: num_batches must be positive")
    weighted = EdgeStream.from_graph(graph, weight)
    stamped = []
    for edge, (_eid, src, dst, w) in zip(graph.edges, weighted):
        ts = edge.properties.get(prop)
        if ts is None:
            raise ConfigError(
                f"replay_batches: edge ({src}, {dst}) has no "
                f"{prop!r} property")
        stamped.append((int(ts), src, dst, w))
    stamped.sort()
    if not stamped:
        return [StreamBatch() for _ in range(num_batches)]
    per = max(1, -(-len(stamped) // num_batches))  # ceil division
    batches = []
    for start in range(0, len(stamped), per):
        chunk = stamped[start:start + per]
        batches.append(StreamBatch(
            appends=tuple((src, dst, w) for _ts, src, dst, w in chunk)))
    while len(batches) < num_batches:
        batches.append(StreamBatch())
    return batches


def sliding_batches(base: Sequence[StreamBatch],
                    width: int) -> List[StreamBatch]:
    """Sliding-window view of an append-only source.

    Batch ``i`` of the result appends what base batch ``i`` appends and
    retracts everything base batch ``i - width`` appended — expressing
    window expiry as explicit retractions, exactly how the paper's
    sliding collections (:func:`repro.core.windows.sliding_windows`)
    become difference sets. The base source must be append-only: expiry
    of an edge the window already retracted is ill-defined.
    """
    if width <= 0:
        raise ConfigError("sliding_batches: width must be positive")
    base = list(base)
    for index, batch in enumerate(base):
        if batch.retracts:
            raise ConfigError(
                f"sliding_batches: base batch {index} has retractions; "
                f"the base source must be append-only")
    out = []
    for index, batch in enumerate(base):
        expired = (base[index - width].appends if index >= width else ())
        out.append(StreamBatch(appends=batch.appends, retracts=expired))
    return out


def batches_from_collection(collection) -> List[StreamBatch]:
    """The views of a materialized collection, as one batch per view.

    View ``i``'s difference set becomes batch ``i``: positive
    multiplicities expand into appends, negative into retracts. Driving
    these batches through the stream engine must reproduce, epoch by
    epoch, what the batch executor computes view by view — the stream
    invariant the fuzzer checks.
    """
    batches = []
    for diff in collection.diffs:
        appends: List[EdgeTriple] = []
        retracts: List[EdgeTriple] = []
        for (_eid, src, dst, w), mult in sorted(diff.items()):
            if mult > 0:
                appends.extend([(src, dst, w)] * mult)
            elif mult < 0:
                retracts.extend([(src, dst, w)] * (-mult))
        batches.append(StreamBatch(appends=tuple(appends),
                                   retracts=tuple(retracts)))
    return batches
