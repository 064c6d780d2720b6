"""Property test: rendered predicates re-parse to semantically equal
predicates (renderer/parser consistency)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gvdl.ast import (
    And,
    BoolLiteral,
    Comparison,
    Literal,
    Not,
    Or,
    PropRef,
)
from repro.gvdl.parser import parse
from repro.gvdl.predicate import compile_predicate

_PROPS = ["duration", "year", "city"]
_TARGETS = ["edge", "src", "dst"]
_OPS = ["=", "!=", "<", "<=", ">", ">="]

literals = st.one_of(
    st.integers(0, 100).map(Literal),
    st.sampled_from(["LA", "NY", "DC"]).map(Literal),
    st.booleans().map(Literal),
)
prop_refs = st.tuples(st.sampled_from(_TARGETS),
                      st.sampled_from(_PROPS)).map(
    lambda pair: PropRef(pair[0], pair[1]))
comparisons = st.tuples(prop_refs, st.sampled_from(_OPS), literals).map(
    lambda triple: Comparison(triple[0], triple[1], triple[2]))


def predicates(depth=2, comparisons=comparisons):
    if depth == 0:
        return st.one_of(comparisons, st.booleans().map(BoolLiteral))
    sub = predicates(depth - 1, comparisons)
    return st.one_of(
        comparisons,
        st.booleans().map(BoolLiteral),
        sub.map(Not),
        st.lists(sub, min_size=2, max_size=3).map(
            lambda ops: And(tuple(ops))),
        st.lists(sub, min_size=2, max_size=3).map(
            lambda ops: Or(tuple(ops))),
    )


def random_props(rng):
    return ({"duration": rng.randrange(100), "year": rng.randrange(100),
             "city": rng.choice(["LA", "NY", "DC", True, 5])},
            {"duration": rng.randrange(100), "year": rng.randrange(100),
             "city": rng.choice(["LA", "NY"])},
            {"duration": rng.randrange(100), "year": rng.randrange(100),
             "city": rng.choice(["LA", "DC"])})


@settings(max_examples=60, deadline=None)
@given(predicates(), st.integers(0, 1000))
def test_rendered_predicate_reparses_equivalently(predicate, seed):
    rendered = str(predicate)
    reparsed = parse(
        f"create view v on g edges where {rendered}").predicate
    original_fn = compile_predicate(predicate)
    reparsed_fn = compile_predicate(reparsed)
    rng = random.Random(seed)
    for _ in range(5):
        eprops, sprops, dprops = random_props(rng)
        try:
            expected = original_fn(eprops, sprops, dprops)
        except Exception as error:  # type mismatches must match too
            with pytest.raises(type(error)):
                reparsed_fn(eprops, sprops, dprops)
            continue
        assert reparsed_fn(eprops, sprops, dprops) == expected, rendered
