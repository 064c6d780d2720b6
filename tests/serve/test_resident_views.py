"""Served answers under interleaved runs and mutations.

Whatever resident state a session has built up — across graph, named
view and collection targets, across appends and retractions — every
``/run`` answer must equal what a cold session computes on the graph as
it stands now. And a collection request must answer exactly like the
``DIFF_ONLY`` batch executor on the re-materialized collection.
"""

import copy
import random

import pytest

from repro.core.executor import AnalyticsExecutor, ExecutionMode
from repro.core.resilience import render_output
from repro.core.system import Graphsurge
from repro.graph.property_graph import PropertyGraph
from repro.serve.session import (
    ServeSession,
    build_request_computation,
    computation_signature,
)

GVDL = ("create view recent on g edges where year >= 2015;",
        "create view collection hist on g "
        "[old: year <= 2013], [mid: year <= 2016], [all: year <= 2030];")
TARGETS = ("g", "recent", "hist")
NODES = 12


def year_graph(seed: int, edges: int = 30) -> PropertyGraph:
    rng = random.Random(seed)
    graph = PropertyGraph("g")
    for node in range(NODES):
        graph.add_node(node, {})
    for _ in range(edges):
        graph.add_edge(rng.randrange(NODES), rng.randrange(NODES),
                       {"year": rng.randrange(2010, 2020)})
    return graph


def new_session(graph: PropertyGraph, **system) -> ServeSession:
    gs = Graphsurge(**system)
    gs.add_graph(graph, "g")
    session = ServeSession(gs)
    for text in GVDL:
        session.execute_gvdl(text)
    return session


def answers(session, name, params, target):
    payload = session.run(computation_signature(name, params),
                          build_request_computation(name, params), target)
    return [(view["view"], view["output"]) for view in payload["views"]]


def cold_answers(session, name, params, target):
    cold = new_session(copy.deepcopy(session.gs.graphs.get("g")))
    try:
        return answers(cold, name, params, target)
    finally:
        cold.close()


def operations(seed: int, count: int = 20):
    """``count`` seeded runs (wcc, bfs{source}, degrees over the three
    targets) and mutations (appends or retracts), runs the majority."""
    rng = random.Random(seed)
    for _ in range(count):
        roll = rng.random()
        if roll < 0.15:
            yield "append", [(rng.randrange(NODES), rng.randrange(NODES),
                              {"year": rng.randrange(2010, 2020)})
                             for _ in range(rng.randint(1, 3))]
        elif roll < 0.3:
            yield "retract", rng.randrange(1 << 30)
        else:
            name, params = rng.choice([
                ("wcc", {}), ("degrees", {}),
                ("bfs", {"source": rng.choice((0, 3))})])
            yield "run", (name, params, rng.choice(TARGETS))


def replay(session, seed: int) -> int:
    checked = 0
    for kind, arg in operations(seed):
        if kind == "append":
            session.mutate("g", add_edges=arg)
        elif kind == "retract":
            edges = session.gs.graphs.get("g").edges
            edge = edges[arg % len(edges)]
            session.mutate("g", retract_edges=[(edge.src, edge.dst)])
        else:
            assert answers(session, *arg) == cold_answers(session, *arg), \
                (seed, arg)
            checked += 1
    return checked


@pytest.mark.parametrize("seed", [3, 17, 29])
def test_interleaved_answers_equal_a_cold_session(seed):
    session = new_session(year_graph(seed))
    try:
        assert replay(session, seed) >= 10
    finally:
        session.close()


def test_interleaved_answers_equal_a_cold_session_on_processes():
    session = new_session(year_graph(17), workers=2, backend="process")
    try:
        assert replay(session, 17) >= 10
    finally:
        session.close()


def test_second_collection_request_after_mutation_matches_executor():
    session = new_session(year_graph(5))
    wcc = build_request_computation("wcc", {})
    try:
        answers(session, "wcc", {}, "hist")
        session.mutate("g", add_edges=[(0, 11, {"year": 2011}),
                                       (4, 7, {"year": 2016})])
        served = answers(session, "wcc", {}, "hist")
    finally:
        session.close()
    batch = AnalyticsExecutor().run_on_collection(
        wcc, session.gs.views.get_collection("hist"),
        mode=ExecutionMode.DIFF_ONLY, keep_outputs=True)
    assert served == [(view.view_name, render_output(view.output))
                      for view in batch.views]
