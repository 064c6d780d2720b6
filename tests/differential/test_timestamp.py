"""Unit and property tests for the product partial order on timestamps."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.differential.timestamp import extend, leq, lt, lub, lub_closure

times2 = st.tuples(st.integers(0, 6), st.integers(0, 6))


class TestLeq:
    def test_equal_times_compare(self):
        assert leq((1, 2), (1, 2))

    def test_componentwise(self):
        assert leq((1, 2), (2, 2))
        assert not leq((2, 2), (1, 3))

    def test_incomparable_pair(self):
        assert not leq((0, 1), (1, 0))
        assert not leq((1, 0), (0, 1))

    def test_different_arity_never_comparable(self):
        assert not leq((1,), (1, 2))
        assert not leq((1, 2), (1,))

    @given(times2, times2, times2)
    def test_transitivity(self, a, b, c):
        if leq(a, b) and leq(b, c):
            assert leq(a, c)

    @given(times2, times2)
    def test_antisymmetry(self, a, b):
        if leq(a, b) and leq(b, a):
            assert a == b

    @given(times2)
    def test_reflexivity(self, a):
        assert leq(a, a)


class TestLub:
    def test_lub_componentwise_max(self):
        assert lub((1, 5), (3, 2)) == (3, 5)

    def test_arity_mismatch_raises(self):
        with pytest.raises(ValueError):
            lub((1,), (1, 2))

    @given(times2, times2)
    def test_lub_is_upper_bound(self, a, b):
        j = lub(a, b)
        assert leq(a, j) and leq(b, j)

    @given(times2, times2, times2)
    def test_lub_is_least(self, a, b, c):
        if leq(a, c) and leq(b, c):
            assert leq(lub(a, b), c)

    @given(times2, times2)
    def test_lub_is_commutative(self, a, b):
        assert lub(a, b) == lub(b, a)

    @given(times2, times2, times2)
    def test_lub_is_associative(self, a, b, c):
        assert lub(lub(a, b), c) == lub(a, lub(b, c))

    @given(times2)
    def test_lub_is_idempotent(self, a):
        assert lub(a, a) == a

    @given(times2, times2)
    def test_lub_of_ordered_pair_is_the_larger(self, a, b):
        if leq(a, b):
            assert lub(a, b) == b


class TestClosure:
    def test_closure_adds_joins(self):
        closed = lub_closure([(0, 1), (1, 0)])
        assert (1, 1) in closed

    def test_closure_of_chain_is_itself(self):
        chain = [(0, 0), (1, 1), (2, 2)]
        assert lub_closure(chain) == set(chain)

    @given(st.lists(times2, min_size=1, max_size=6))
    def test_closure_is_closed(self, times):
        closed = lub_closure(times)
        for a in closed:
            for b in closed:
                assert lub(a, b) in closed

    @given(st.lists(times2, min_size=1, max_size=6))
    def test_closure_contains_input(self, times):
        assert set(times) <= lub_closure(times)


class TestExtend:
    def test_extend_appends_zero(self):
        assert extend((3,)) == (3, 0)
        assert extend((3, 1)) == (3, 1, 0)

    def test_strict_order(self):
        assert lt((1, 1), (1, 2))
        assert not lt((1, 1), (1, 1))

    @given(times2, times2)
    def test_lt_is_leq_without_equality(self, a, b):
        assert lt(a, b) == (leq(a, b) and a != b)

    @given(times2, times2)
    def test_extend_preserves_the_order(self, a, b):
        assert leq(extend(a), extend(b)) == leq(a, b)
