"""Christofides' minimum-weight perfect matching against two oracles.

* Pinned weights: the matching weight on the odd-degree vertices of the
  Hamming cliques that ``perturb_ordered`` (seeds 11-14) and Table 4
  (LJ-like and WTC-like at 10C5 and 7C4) order, recorded from the
  previous implementation. Weights, not pairs: where the optimum ties, an
  exact matching may pick a different set of pairs.
* An exact bitmask DP over all perfect matchings for even n <= 14.
"""

import importlib.util
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Graphsurge
from repro.bench.workloads import default_lj_graph, default_wtc_graph
from repro.core.ebm import build_ebm
from repro.core.ordering.christofides import (
    _Blossoms,
    christofides_tour,
    min_weight_perfect_matching,
    prim_mst,
)
from repro.core.ordering.hamming import hamming_distance_matrix
from repro.datasets.community import perturbation_views
from repro.errors import OrderingError

REPO = Path(__file__).resolve().parents[2]


def matching_weight(weights):
    """Weight of the matching the implementation returns for ``weights``."""
    mate = min_weight_perfect_matching(weights)
    assert sorted(mate) == list(range(len(weights)))
    assert all(mate[mate] == np.arange(len(weights)))
    return weights[np.arange(len(weights)), mate].sum() / 2


def dp_matching_weight(weights):
    """Exact minimum over all perfect matchings: pair the lowest unmatched
    vertex with every other unmatched one, memoised on the bitmask."""
    n = weights.shape[0]
    rows = [[weights[u, v] for v in range(n)] for u in range(n)]

    @lru_cache(maxsize=None)
    def best(mask):
        if mask == 0:
            return 0
        u = (mask & -mask).bit_length() - 1
        rest = mask & ~(1 << u)
        return min(rows[u][v] + best(rest & ~(1 << v))
                   for v in range(u + 1, n) if rest >> v & 1)

    return best((1 << n) - 1)


def odd_vertex_weights(matrix):
    """The sub-matrix Christofides matches: the Hamming clique's entries
    between the odd-degree vertices of its minimum spanning tree."""
    distances = hamming_distance_matrix(matrix)
    degree = np.zeros(distances.shape[0], dtype=int)
    for u, v in prim_mst(distances):
        degree[u] += 1
        degree[v] += 1
    odd = np.flatnonzero(degree % 2)
    return distances[np.ix_(odd, odd)]


def perturb_ordered_matrix(seed, tmp_path):
    """The EBM of the ``perturb_ordered`` benchmark workload in declared
    order, from the benchmark's own generator."""
    spec = importlib.util.spec_from_file_location(
        "perf_gen", REPO / "perf" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    nodes_csv, edges_csv, _pairs, _member = gen.community_graph(
        seed, nodes=600, edges=3000, communities=8)
    nodes, edges = tmp_path / "nodes.csv", tmp_path / "edges.csv"
    nodes.write_text(nodes_csv)
    edges.write_text(edges_csv)
    gs = Graphsurge()
    gs.load_graph("g", nodes, edges)
    gs.execute(gen.perturb_gvdl("c", "g", gen.perturb_views(seed, 8, 4)))
    return gs.views.get_collection("c").ebm.matrix


def table4_matrix(dataset, top_n, k):
    graph = default_lj_graph() if dataset == "lj" else default_wtc_graph()
    views = perturbation_views(graph, top_n, k)
    return build_ebm(graph, [name for name, _ in views],
                     [pred for _, pred in views]).matrix


#: (odd vertices, matching weight), recorded from the previous matching.
PERTURB_ORDERED = {11: (52, 19417), 12: (44, 16462), 13: (46, 17240),
                   14: (42, 15817)}
TABLE4 = {("lj", 10, 5): (152, 12148), ("lj", 7, 4): (20, 2916),
          ("wtc", 10, 5): (168, 11174), ("wtc", 7, 4): (22, 2359)}


class TestPinnedWeights:
    @pytest.mark.parametrize("seed", sorted(PERTURB_ORDERED))
    def test_perturb_ordered(self, seed, tmp_path):
        weights = odd_vertex_weights(perturb_ordered_matrix(seed, tmp_path))
        assert (len(weights), matching_weight(weights)) == \
            PERTURB_ORDERED[seed]

    @pytest.mark.parametrize("instance", sorted(TABLE4))
    def test_table4(self, instance):
        weights = odd_vertex_weights(table4_matrix(*instance))
        assert (len(weights), matching_weight(weights)) == TABLE4[instance]


even_sizes = st.integers(1, 7).map(lambda half: 2 * half)


def symmetric(values, n):
    weights = np.zeros((n, n), dtype=values.dtype)
    upper = np.triu_indices(n, 1)
    weights[upper] = values
    return weights + weights.T


@st.composite
def hamming_instances(draw):
    n = draw(even_sizes)
    rows = draw(st.integers(1, 40))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    bits = np.random.default_rng(seed).random((rows, n)) < 0.5
    return hamming_distance_matrix(bits)[1:, 1:]


@st.composite
def tied_instances(draw):
    n = draw(even_sizes)
    if draw(st.booleans()):
        return np.full((n, n), draw(st.integers(0, 5)), dtype=np.int64) \
            * (1 - np.eye(n, dtype=np.int64))
    values = draw(st.lists(st.integers(0, 1), min_size=n * (n - 1) // 2,
                           max_size=n * (n - 1) // 2))
    return symmetric(np.array(values, dtype=np.int64), n)


@st.composite
def arbitrary_instances(draw):
    n = draw(even_sizes)
    size = n * (n - 1) // 2
    if draw(st.booleans()):
        values = draw(st.lists(st.integers(0, 10 ** 6), min_size=size,
                               max_size=size))
        return symmetric(np.array(values, dtype=np.int64), n)
    values = draw(st.lists(
        st.floats(0, 1e3, allow_nan=False, allow_infinity=False),
        min_size=size, max_size=size))
    return symmetric(np.array(values, dtype=float), n)


#: Two cheap pairs {0, 1} and {2, 3}: the only optimum weighs 2.
TWO_PAIRS = np.array([[0, 1, 9, 9], [1, 0, 9, 9], [9, 9, 0, 1],
                      [9, 9, 1, 0]])


class TestCertificate:
    def solved(self):
        blossoms = _Blossoms(TWO_PAIRS.astype(np.int64))
        blossoms.solve()
        blossoms.certify()
        return blossoms

    def test_integer_weights_are_solved_in_integers(self):
        blossoms = self.solved()
        assert blossoms.dual.dtype == np.int64
        assert list(blossoms.mate) == [1, 0, 3, 2]

    def test_a_matched_pair_that_is_not_tight_is_refused(self):
        blossoms = self.solved()
        blossoms.mate[:] = [2, 3, 0, 1]
        with pytest.raises(OrderingError, match="not tight"):
            blossoms.certify()

    def test_infeasible_duals_are_refused(self):
        blossoms = self.solved()
        blossoms.dual[0] -= 20
        with pytest.raises(OrderingError, match="infeasible"):
            blossoms.certify()

    def test_an_imperfect_matching_is_refused(self):
        blossoms = self.solved()
        blossoms.mate[:] = [1, 0, 3, -1]
        with pytest.raises(OrderingError, match="not perfect"):
            blossoms.certify()

    def test_every_call_is_certified(self, monkeypatch):
        def wrong(self):
            # Pair v with v+2 (mod n): perfect, and not optimal above.
            self.mate[:] = (np.arange(self.n) + 2) % self.n
            return self.mate

        monkeypatch.setattr(_Blossoms, "solve", wrong)
        with pytest.raises(OrderingError):
            min_weight_perfect_matching(TWO_PAIRS)
        points = np.array([[0, 0], [1, 0], [0, 1], [5, 5], [6, 5]])
        weights = np.abs(points[:, None] - points[None]).sum(axis=2)
        with pytest.raises(OrderingError):
            christofides_tour(weights)

    def test_an_odd_vertex_count_is_refused(self):
        with pytest.raises(OrderingError, match="even"):
            min_weight_perfect_matching(np.zeros((3, 3)))


class TestAgainstTheDpOracle:
    @settings(max_examples=60, deadline=None)
    @given(hamming_instances())
    def test_hamming_cliques(self, weights):
        assert matching_weight(weights) == dp_matching_weight(weights)

    @settings(max_examples=40, deadline=None)
    @given(tied_instances())
    def test_tied_weights(self, weights):
        assert matching_weight(weights) == dp_matching_weight(weights)

    @settings(max_examples=60, deadline=None)
    @given(arbitrary_instances())
    def test_arbitrary_weights(self, weights):
        assert matching_weight(weights) == pytest.approx(
            dp_matching_weight(weights), rel=1e-9, abs=1e-9)
