"""The paper's Table 1: Bellman-Ford difference traces across graph
versions G0 -> G1 -> G2.

Graph (Figure 3): s->w1 cost 2, s->w2 cost 10, w1->w2 cost 2 (we add
w2->w3 cost 2 to give the example one more hop). Updates: G1 changes
(s,w1) to cost 1; G2 changes (s,w2) to cost 1.

We assert the *values* the paper's trace implies and the key sharing
property: the second and third versions touch only the w-component — the
number of per-epoch differences stays constant as unrelated graph content
grows (the paper's "billions of z edges" argument).
"""

import random

from repro.differential import Dataflow


def bellman_ford_dataflow():
    df = Dataflow()
    edges = df.new_input("edges")     # (src, (dst, cost))
    dists = df.new_input("dists")     # (vertex, dist)

    def body(inner, scope):
        e = scope.enter(edges)
        d = scope.enter(dists)
        messages = inner.join(
            e, lambda u, dist, dc: (dc[0], dist + dc[1]))
        return messages.concat(d).min_by_key()

    return df, edges, dists, df.capture(dists.iterate(body), "out")


W_EDGES = {("s", ("w1", 2)): 1, ("s", ("w2", 10)): 1,
           ("w1", ("w2", 2)): 1, ("w2", ("w3", 2)): 1}


class TestPaperTable1:
    def test_g0_distances(self):
        df, *_rest, out = bellman_ford_dataflow()
        df.step({"edges": W_EDGES, "dists": {("s", 0): 1}})
        assert out.value_at_epoch(0) == {
            ("s", 0): 1, ("w1", 2): 1, ("w2", 4): 1, ("w3", 6): 1}

    def test_g1_after_first_cost_change(self):
        df, *_rest, out = bellman_ford_dataflow()
        df.step({"edges": W_EDGES, "dists": {("s", 0): 1}})
        df.step({"edges": {("s", ("w1", 2)): -1, ("s", ("w1", 1)): 1}})
        assert out.value_at_epoch(1) == {
            ("s", 0): 1, ("w1", 1): 1, ("w2", 3): 1, ("w3", 5): 1}
        # Output differences are exactly the distance corrections.
        assert out.diff_at((1,)) == {
            ("w1", 2): -1, ("w1", 1): 1,
            ("w2", 4): -1, ("w2", 3): 1,
            ("w3", 6): -1, ("w3", 5): 1}

    def test_g2_after_second_cost_change(self):
        df, *_rest, out = bellman_ford_dataflow()
        df.step({"edges": W_EDGES, "dists": {("s", 0): 1}})
        df.step({"edges": {("s", ("w1", 2)): -1, ("s", ("w1", 1)): 1}})
        df.step({"edges": {("s", ("w2", 10)): -1, ("s", ("w2", 1)): 1}})
        assert out.value_at_epoch(2) == {
            ("s", 0): 1, ("w1", 1): 1, ("w2", 1): 1, ("w3", 3): 1}

    def test_updates_do_not_touch_unrelated_component(self):
        """The paper's sharing claim: after G0, updates to the w-component
        cost the same no matter how much unrelated (z) content exists."""

        def run(extra_z_edges: int) -> int:
            df, *_rest, out = bellman_ford_dataflow()
            edges = dict(W_EDGES)
            for i in range(extra_z_edges):
                edges[(f"z{i}", (f"z{i+1}", 1))] = 1
            df.step({"edges": edges,
                     "dists": {("s", 0): 1, ("z0", 0): 1}})
            before = df.meter.total_work
            df.step({"edges": {("s", ("w1", 2)): -1, ("s", ("w1", 1)): 1}})
            return df.meter.total_work - before

        small = run(5)
        large = run(50)
        assert small == large

    def test_single_edge_update_costs_a_small_fraction_of_the_first_run(
            self):
        """The sharing primitive every headline result rests on: after a
        full WCC epoch, adding one edge costs under 1/20 of that epoch."""
        df = Dataflow()
        edges = df.new_input("edges")
        labels = df.new_input("labels")

        def body(inner, scope):
            e = scope.enter(edges)
            seed = scope.enter(labels)
            return inner.join(
                e, lambda u, lbl, v: (v, lbl)).concat(seed).min_by_key()

        df.capture(labels.iterate(body), "out")
        rng = random.Random(5)
        n = 1_000
        edge_diff = {}
        while len(edge_diff) < 8_000:
            u, v = rng.randrange(n), rng.randrange(n)
            if u != v:
                edge_diff[(u, v)] = 1
                edge_diff[(v, u)] = 1
        df.step({"edges": edge_diff,
                 "labels": {(v, v): 1 for v in range(n)}})
        first_epoch = df.meter.total_work
        u, v = rng.randrange(n), rng.randrange(n)
        assert u != v and (u, v) not in edge_diff
        df.step({"edges": {(u, v): 1, (v, u): 1}})
        assert 0 < df.meter.total_work - first_epoch < first_epoch / 20

    def test_epoch_diff_counts_bounded(self):
        df, *_rest, out = bellman_ford_dataflow()
        df.step({"edges": W_EDGES, "dists": {("s", 0): 1}})
        df.step({"edges": {("s", ("w1", 2)): -1, ("s", ("w1", 1)): 1}})
        df.step({"edges": {("s", ("w2", 10)): -1, ("s", ("w2", 1)): 1}})
        # Each update yields exactly 6 output differences (3 vertices x
        # retraction+assertion), as in the paper's table.
        assert len(out.diff_at((1,))) == 6
        assert len(out.diff_at((2,))) == 4
