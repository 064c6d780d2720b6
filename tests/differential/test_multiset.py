"""Unit and property tests for the multiset algebra."""

from hypothesis import given
from hypothesis import strategies as st

from repro.differential.multiset import add_into, consolidate, negate, size

diffs = st.dictionaries(st.integers(0, 9), st.integers(-5, 5).filter(bool),
                        max_size=8)


class TestConsolidate:
    def test_drops_zeros(self):
        assert consolidate({"a": 0, "b": 2}) == {"b": 2}

    def test_keeps_negative(self):
        assert consolidate({"a": -3}) == {"a": -3}

    def test_empty(self):
        assert consolidate({}) == {}


class TestAddInto:
    def test_merges_and_cancels(self):
        target = {"a": 1, "b": 2}
        add_into(target, {"a": -1, "c": 3})
        assert target == {"b": 2, "c": 3}

    def test_factor(self):
        target = {"a": 1}
        add_into(target, {"a": 1, "b": 2}, factor=-1)
        assert target == {"b": -2}

    @given(diffs, diffs)
    def test_matches_manual_sum(self, a, b):
        target = dict(a)
        add_into(target, b)
        for key in set(a) | set(b):
            expected = a.get(key, 0) + b.get(key, 0)
            assert target.get(key, 0) == expected
        assert 0 not in target.values()

    @given(diffs, diffs)
    def test_commutative(self, a, b):
        assert add_into(dict(a), b) == add_into(dict(b), a)

    @given(diffs, diffs, diffs)
    def test_associative(self, a, b, c):
        left = add_into(add_into(dict(a), b), c)
        right = add_into(dict(a), add_into(dict(b), c))
        assert left == right

    def test_returns_the_target(self):
        target = {"a": 1}
        assert add_into(target, {"b": 1}) is target

    def test_consolidate_is_in_place(self):
        diff = {"a": 0, "b": 1}
        assert consolidate(diff) is diff
        assert diff == {"b": 1}


class TestNegate:
    @given(diffs)
    def test_negate_twice_is_identity(self, a):
        assert negate(negate(a)) == a

    @given(diffs)
    def test_negation_is_the_additive_inverse(self, a):
        assert add_into(dict(a), negate(a)) == {}

    @given(diffs, diffs)
    def test_factor_minus_one_adds_the_negation(self, a, b):
        assert add_into(dict(a), b, factor=-1) == add_into(dict(a), negate(b))

    @given(diffs, diffs)
    def test_subtract_then_add_back(self, a, b):
        result = add_into(dict(a), b, factor=-1)
        add_into(result, b)
        assert result == consolidate(dict(a))

    @given(diffs)
    def test_negation_keeps_size_and_leaves_input_alone(self, a):
        before = dict(a)
        assert size(negate(a)) == size(a)
        assert a == before


class TestPredicates:
    @given(diffs)
    def test_size_is_total_absolute_multiplicity(self, a):
        assert size(a) == sum(abs(m) for m in a.values())
