"""``build_ebm`` evaluates by columns; the row closures stay the reference.

Every matrix the column pass produces — and every error it lets the row
evaluators raise — must equal compiling each predicate and calling it on
each edge, which is what ``build_ebm`` did before and what single-record
evaluation (``create view … where``) still does.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ebm import build_ebm
from repro.errors import GvdlTypeError, UnknownPropertyError
from repro.graph.property_graph import PropertyGraph
from repro.graph.schema import PropertyType, Schema
from repro.gvdl.ast import And, Comparison, Literal, Not, Or, PropRef
from repro.gvdl.parser import parse
from repro.gvdl.predicate import compile_predicate
from tests.gvdl.test_roundtrip import _OPS, _TARGETS, literals, predicates

PROPS = ["duration", "year", "city"]


def row_closure_matrix(graph, view_predicates):
    """The reference: one compiled closure per view, called per edge."""
    evaluators = [compile_predicate(p, graph.edge_schema, graph.node_schema)
                  for p in view_predicates]
    matrix = np.zeros((graph.num_edges, len(evaluators)), dtype=bool)
    for row, edge in enumerate(graph.edges):
        matrix[row] = [evaluate(edge.properties,
                                graph.nodes[edge.src].properties,
                                graph.nodes[edge.dst].properties)
                       for evaluate in evaluators]
    return matrix


def outcome(call):
    """``("ok", matrix rows)`` or ``("raised", type, message)``."""
    try:
        return ("ok", call().tolist())
    except Exception as error:
        return ("raised", type(error), str(error))


def assert_same_as_rows(graph, view_predicates, workers=1):
    names = [f"v{i}" for i in range(len(view_predicates))]
    expected = outcome(lambda: row_closure_matrix(graph, view_predicates))
    actual = outcome(lambda: build_ebm(graph, names, view_predicates,
                                       workers=workers).matrix)
    assert actual == expected
    return expected


def where(source):
    return parse(f"create view v on g edges where {source}").predicate


# -- the property test ---------------------------------------------------------

operands = st.one_of(
    st.tuples(st.sampled_from(_TARGETS),
              st.sampled_from(PROPS + ["nope"])).map(lambda p: PropRef(*p)),
    literals,
    # ``c = true`` beside ``c = 1``: equal-comparing literals of
    # different type hash alike, so their atoms share a memo slot.
    st.sampled_from([True, 1, 1.0, False, 0]).map(Literal),
)
comparison_pools = st.lists(
    st.tuples(operands, st.sampled_from(_OPS), operands).map(
        lambda triple: Comparison(*triple)),
    min_size=1, max_size=4)
view_lists = comparison_pools.flatmap(
    lambda pool: st.lists(predicates(2, st.sampled_from(pool)),
                          min_size=1, max_size=6))

SCHEMA = {"duration": PropertyType.INT, "year": PropertyType.INT,
          "city": PropertyType.STRING}
VALUES = [0, 1, 5, 100, True, False, "LA", "NY", 1.0]


@st.composite
def graphs(draw):
    rng = random.Random(draw(st.integers(0, 10_000)))
    typed = draw(st.booleans())
    mixed = draw(st.booleans())
    missing = draw(st.sampled_from([0.0, 0.0, 0.2]))
    num_nodes = draw(st.integers(1, 6))
    num_edges = draw(st.integers(0, 14))
    graph = PropertyGraph(
        "g", node_schema=Schema(SCHEMA if typed else {}),
        edge_schema=Schema(SCHEMA if typed else {}))

    def props():
        if typed:
            return {"duration": rng.randrange(4), "year": rng.randrange(4),
                    "city": rng.choice(["LA", "NY"])}
        pool = VALUES if mixed else [0, 1, 5, 100]
        return {name: rng.choice(pool) for name in PROPS
                if rng.random() >= missing}

    for node in range(num_nodes):
        graph.add_node(node, props())
    for _ in range(num_edges):
        # Few nodes: parallel edges and self-loops are common.
        graph.add_edge(rng.randrange(num_nodes), rng.randrange(num_nodes),
                       props())
    if draw(st.booleans()) and graph.edges:
        victim = rng.choice(graph.edges)
        graph.remove_edges(victim.src, victim.dst)
        graph.add_edge(victim.dst, victim.src, props())
    return graph


@settings(max_examples=300, deadline=None)
@given(graphs(), view_lists, st.sampled_from([1, 3]))
def test_matrix_and_errors_equal_row_at_a_time_evaluation(
        graph, view_predicates, workers):
    assert_same_as_rows(graph, view_predicates, workers)


# -- named cases ---------------------------------------------------------------

def shield_graph(unshielded_rows=()):
    """Edges whose ``w`` is an int; ``src.c`` is true except on the
    sources of ``unshielded_rows``."""
    graph = PropertyGraph("g")
    for node in range(6):
        graph.add_node(node, {"c": node not in unshielded_rows})
    for node in range(6):
        graph.add_edge(node, (node + 1) % 6, {"w": node})
    return graph


class TestShortCircuitTrap:
    """A row closure never evaluates ``w < 'x'`` where an earlier ``or``
    operand is already true; a column pass would."""

    def test_every_bad_cell_shielded_succeeds(self):
        graph = shield_graph()
        expected = assert_same_as_rows(
            graph, [where("src.c = true or w < 'x'"), where("w >= 3")])
        assert expected[0] == "ok"
        assert [row[0] for row in expected[1]] == [True] * 6

    def test_one_unshielded_cell_raises_the_row_error(self):
        graph = shield_graph(unshielded_rows=(2,))
        with pytest.raises(GvdlTypeError) as caught:
            build_ebm(graph, ["a"], [where("src.c = true or w < 'x'")])
        assert str(caught.value) == "cannot compare 2 < 'x'"
        assert_same_as_rows(graph, [where("src.c = true or w < 'x'")])

    def test_missing_property_behind_a_false_conjunct(self):
        graph = PropertyGraph("g")
        graph.add_node(0)
        graph.add_edge(0, 0, {"has": True, "missing": 7})
        graph.add_edge(0, 0, {"has": False})
        views = [where("has = true and missing > 3")]
        assert assert_same_as_rows(graph, views) == ("ok", [[True], [False]])
        graph.add_edge(0, 0, {"has": True})
        with pytest.raises(UnknownPropertyError) as caught:
            build_ebm(graph, ["a"], views)
        assert str(caught.value) == "edge record has no property 'missing'"
        assert_same_as_rows(graph, views)

    def test_unhashable_literal(self):
        """Only reachable programmatically; the memo cannot key on it."""
        graph = shield_graph()
        atom = Comparison(PropRef("edge", "w"), "=", Literal([1, 2]))
        with pytest.raises(TypeError):
            hash(atom)
        expected = assert_same_as_rows(
            graph, [atom, Not(atom), Or((atom, where("w < 2")))])
        assert expected[1][0] == [False, True, True]


# -- the speed-up is structural ------------------------------------------------

class Counted:
    """A property value that counts the comparisons made against it."""

    calls = 0

    def __init__(self, value):
        self.value = value

    def __eq__(self, other):
        Counted.calls += 1
        return self.value == other

    def __lt__(self, other):
        Counted.calls += 1
        return self.value < other

    __hash__ = None


def counted_graph(num_edges=40):
    rng = random.Random(3)
    graph = PropertyGraph("g")
    for node in range(8):
        graph.add_node(node, {"c": Counted(rng.random() < 0.5)})
    for _ in range(num_edges):
        graph.add_edge(rng.randrange(8), rng.randrange(8),
                       {"w": Counted(rng.randrange(9))})
    return graph


def comparisons_made(call):
    Counted.calls = 0
    result = call()
    return Counted.calls, result


class TestComparisonsPerAtom:
    def test_views_sharing_one_atom_cost_m(self):
        graph = counted_graph()
        m = graph.num_edges
        atom = where("w < 4")
        views = [atom, Not(atom), And((atom, where("true"))),
                 Or((where("false"), atom)), where("not (w < 4)")]
        made, ebm = comparisons_made(lambda: build_ebm(
            graph, [f"v{i}" for i in range(len(views))], views))
        assert made == m
        by_rows, reference = comparisons_made(
            lambda: row_closure_matrix(graph, views))
        assert by_rows == m * len(views)
        assert ebm.matrix.tolist() == reference.tolist()

    def test_one_property_under_src_and_dst_costs_2m(self):
        graph = counted_graph()
        m = graph.num_edges
        views = [where("not (src.c = true or dst.c = true)"),
                 where("src.c = true and dst.c = true"),
                 where("dst.c = true"), where("src.c = true")]
        made, ebm = comparisons_made(lambda: build_ebm(
            graph, ["a", "b", "c", "d"], views))
        assert made == 2 * m
        assert ebm.matrix.tolist() == row_closure_matrix(
            graph, views).tolist()


def test_no_state_outlives_the_call():
    """Serve ``/mutate`` edits ``graph.edges`` and property dicts in
    place; the next creation must see the edit."""
    graph = shield_graph()
    views = [where("w < 3"), where("src.c = true")]
    first = build_ebm(graph, ["a", "b"], views).matrix.tolist()
    graph.edges[0].properties["w"] = 50
    graph.nodes[1].properties["c"] = False
    graph.add_edge(5, 5, {"w": 1})
    second = build_ebm(graph, ["a", "b"], views).matrix.tolist()
    assert first == [[True, True]] * 3 + [[False, True]] * 3
    assert second == [[False, True], [True, False], [True, True],
                      [False, True], [False, True], [False, True],
                      [True, True]]
