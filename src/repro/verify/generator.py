"""Seeded random view-collection generation for the differential oracle.

Three generation grammars, mirroring the ways real collections reach the
executor (see docs/verification.md):

* **churn** — difference sets built directly (random edge additions and
  removals per view, weighted, occasionally a no-op view), the shape of
  the paper's Orkut experiment.
* **window** — a random property graph windowed over an integer edge
  property through the builders in :mod:`repro.core.windows`
  (cumulative / sliding / expand-shrink-slide).
* **gvdl** — a random property graph plus generated GVDL text executed
  through a full :class:`~repro.core.system.Graphsurge` session, so the
  lexer, parser, predicate compiler, and EBM pipeline are all inside the
  fuzzed surface.

Everything is derived from one ``random.Random(seed)``: the same seed
always yields byte-identical collections.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.view_collection import (
    MaterializedCollection,
    collection_from_diffs,
)
from repro.graph.property_graph import PropertyGraph
from repro.graph.schema import PropertyType, Schema

#: The generation grammars, with churn weighted highest (cheapest and
#: most adversarial: removals, re-additions, duplicate weights).
KINDS = ("churn", "window", "gvdl")
_KIND_WEIGHTS = (2, 1, 1)


@dataclass
class GeneratedCase:
    """One fuzz input: a collection plus how it was produced."""

    seed: int
    kind: str
    collection: MaterializedCollection
    #: The generated statement text for ``gvdl`` cases (replay aid).
    gvdl_text: Optional[str] = None

    def vertices(self) -> List[int]:
        """Sorted union of endpoints over every view's difference set."""
        out = set()
        for diff in self.collection.diffs:
            for (_eid, src, dst, _w) in diff:
                out.add(src)
                out.add(dst)
        return sorted(out)


# -- churn: direct difference-set generation ---------------------------------


def random_churn_collection(seed: int,
                            num_views: Optional[int] = None,
                            num_nodes: Optional[int] = None,
                            churn: Optional[int] = None
                            ) -> MaterializedCollection:
    """A weighted random-churn collection built straight from diffs.

    Each view removes and adds a few edges relative to its predecessor;
    weights are drawn from 1..5 and preserved per ``(src, dst, weight)``
    identity so a remove-then-identical-re-add inside one view cancels to
    a no-op, exactly like the EBM pipeline's difference sets.
    """
    rng = random.Random(seed)
    n = num_nodes if num_nodes is not None else rng.randint(6, 12)
    views = num_views if num_views is not None else rng.randint(2, 6)
    per_view = churn if churn is not None else rng.randint(2, 8)

    edge_ids: Dict[Tuple[int, int, int], int] = {}

    def key(u: int, v: int, w: int) -> Tuple[int, int, int, int]:
        identity = (u, v, w)
        eid = edge_ids.setdefault(identity, len(edge_ids))
        return (eid, u, v, w)

    def bump(diff: dict, k: tuple, delta: int) -> None:
        mult = diff.get(k, 0) + delta
        if mult:
            diff[k] = mult
        else:
            diff.pop(k, None)

    current: Dict[Tuple[int, int], Tuple[int, int, int, int]] = {}
    diffs = []
    base = {}
    for _ in range(rng.randint(n, 2 * n)):
        u, v = rng.randrange(n), rng.randrange(n)
        if u == v or (u, v) in current:
            continue
        k = key(u, v, rng.randint(1, 5))
        current[(u, v)] = k
        bump(base, k, +1)
    diffs.append(base)
    for _view in range(views - 1):
        diff: dict = {}
        if rng.random() < 0.08:
            # A deliberate no-op view: identical to its predecessor.
            diffs.append(diff)
            continue
        removals = rng.randint(0, min(per_view, len(current)))
        for pair in rng.sample(sorted(current), removals):
            bump(diff, current.pop(pair), -1)
        for _ in range(rng.randint(0, per_view)):
            u, v = rng.randrange(n), rng.randrange(n)
            if u == v or (u, v) in current:
                continue
            k = key(u, v, rng.randint(1, 5))
            current[(u, v)] = k
            bump(diff, k, +1)
        diffs.append(diff)
    return collection_from_diffs(f"fuzz-churn-{seed}", diffs,
                                 source="fuzz")


# -- shared random property graph --------------------------------------------


def _random_property_graph(rng: random.Random) -> PropertyGraph:
    """Random graph ``g`` with ``ts``/``w`` edge and ``grp`` node
    properties."""
    n = rng.randint(6, 12)
    graph = PropertyGraph(
        "g",
        node_schema=Schema({"grp": PropertyType.INT}),
        edge_schema=Schema({"ts": PropertyType.INT,
                            "w": PropertyType.INT}))
    groups = rng.randint(2, 4)
    for node in range(n):
        graph.add_node(node, {"grp": rng.randrange(groups)})
    seen = set()
    for _ in range(rng.randint(2 * n, 4 * n)):
        u, v = rng.randrange(n), rng.randrange(n)
        if u == v or (u, v) in seen:
            continue
        seen.add((u, v))
        graph.add_edge(u, v, {"ts": rng.randrange(100),
                              "w": rng.randint(1, 5)})
    return graph


# -- window: the builders of repro.core.windows ------------------------------


def random_window_collection(seed: int) -> MaterializedCollection:
    """Window a random graph's ``ts`` property with a random builder."""
    from repro.core.windows import (
        cumulative_windows,
        expand_shrink_slide,
        sliding_windows,
    )

    rng = random.Random(seed)
    graph = _random_property_graph(rng)
    shape = rng.choice(("cumulative", "sliding", "expand-shrink"))
    if shape == "cumulative":
        start = rng.randrange(10, 40)
        step = rng.randint(10, 30)
        count = rng.randint(2, 5)
        definition = cumulative_windows(
            f"fuzz-window-{seed}", graph.name, "ts",
            bounds=range(start, start + step * count, step))
    elif shape == "sliding":
        definition = sliding_windows(
            f"fuzz-window-{seed}", graph.name, "ts",
            start=rng.randrange(0, 30), width=rng.randint(15, 45),
            slide=rng.randint(10, 40), count=rng.randint(2, 5))
    else:
        phases = []
        lo, hi = rng.randrange(0, 30), rng.randrange(40, 80)
        for _ in range(rng.randint(2, 5)):
            phases.append((lo, hi))
            lo = max(0, lo + rng.randint(-15, 15))
            hi = max(lo + 5, hi + rng.randint(-15, 15))
        definition = expand_shrink_slide(
            f"fuzz-window-{seed}", graph.name, "ts", phases)
    weight = "w" if rng.random() < 0.5 else None
    return definition.materialize(graph, weight_property=weight)


# -- gvdl: generated statement text through a full session -------------------


def _random_predicate(rng: random.Random) -> str:
    atoms = [
        lambda: f"ts <= {rng.randrange(10, 95)}",
        lambda: f"ts > {rng.randrange(5, 60)}",
        lambda: f"ts between {rng.randrange(0, 40)} "
                f"and {rng.randrange(40, 99)}",
        lambda: f"w >= {rng.randint(1, 4)}",
        lambda: f"w in ({rng.randint(1, 2)}, {rng.randint(3, 5)})",
        lambda: "src.grp = dst.grp",
        lambda: f"src.grp != {rng.randrange(3)}",
        lambda: f"dst.grp = {rng.randrange(3)}",
    ]
    terms = [rng.choice(atoms)() for _ in range(rng.randint(1, 3))]
    joiner = rng.choice([" and ", " or "])
    text = joiner.join(terms)
    if len(terms) > 1 and rng.random() < 0.25:
        text = f"not ({text})"
    return text


def random_gvdl_collection(seed: int
                           ) -> Tuple[MaterializedCollection, str]:
    """Generate GVDL text and execute it in a fresh Graphsurge session."""
    from repro.core.system import Graphsurge

    rng = random.Random(seed)
    graph = _random_property_graph(rng)
    name = f"fuzz-gvdl-{seed}"
    views = ",\n".join(
        f"[v{i}: {_random_predicate(rng)}]"
        for i in range(rng.randint(2, 5)))
    text = f"create view collection {name} on g\n{views};"
    weight = "w" if rng.random() < 0.5 else None
    session = Graphsurge(weight_property=weight)
    session.add_graph(graph, "g")
    session.execute(text)
    return session.views.get_collection(name), text


# -- top level ---------------------------------------------------------------


def generate_case(seed: int,
                  kinds: Optional[Sequence[str]] = None) -> GeneratedCase:
    """One deterministic fuzz case; ``kinds`` restricts the grammar."""
    rng = random.Random(seed)
    allowed = tuple(kinds) if kinds else KINDS
    for kind in allowed:
        if kind not in KINDS:
            raise ValueError(f"unknown case kind {kind!r}; "
                             f"expected one of {KINDS}")
    weights = [_KIND_WEIGHTS[KINDS.index(kind)] for kind in allowed]
    kind = rng.choices(allowed, weights=weights)[0]
    sub_seed = rng.randrange(2 ** 32)
    if kind == "churn":
        return GeneratedCase(seed, kind, random_churn_collection(sub_seed))
    if kind == "window":
        return GeneratedCase(seed, kind, random_window_collection(sub_seed))
    collection, text = random_gvdl_collection(sub_seed)
    return GeneratedCase(seed, kind, collection, gvdl_text=text)
