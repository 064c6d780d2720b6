"""Personalized PageRank: integer-arithmetic ranking around a seed set.

Same fixed-point machinery as :mod:`repro.algorithms.pagerank`, but the
teleport mass returns to a **seed set** instead of spreading uniformly:
seeds share the restart probability equally, every other vertex gets a
teleport term of zero. One iteration computes::

    rank'(v) = teleport(v) + Σ_{u→v} (DAMPING_NUM * (rank(u) // deg(u))) // DAMPING_DEN

with ``teleport(v) = BASE // |S|`` for present seeds and ``0`` otherwise.

Seed normalization: requested seeds that do not exist in the view are
dropped, and the restart mass is split over the seeds actually present.
If none are present, every rank is zero — there is nowhere for restart
mass to enter the graph. The oracle mirrors both rules exactly.
"""

from __future__ import annotations

from typing import Iterable

from repro.algorithms.pagerank import BASE, DAMPING_DEN, DAMPING_NUM, SCALE
from repro.core.computation import GraphComputation
from repro.errors import ConfigError


class PersonalizedPageRank(GraphComputation):
    """Fixed-iteration integer PageRank personalized to ``seeds``."""

    name = "PPR"
    directed = True

    def __init__(self, seeds: Iterable[int], iterations: int = 10,
                 quantum: int = SCALE // 1000):
        self.seeds = frozenset(int(s) for s in seeds)
        if not self.seeds:
            raise ConfigError("seeds must be a non-empty vertex list, "
                              "e.g. --seeds 1,5")
        if iterations < 1:
            raise ConfigError("iterations must be >= 1")
        if quantum < 1:
            raise ConfigError("quantum must be >= 1")
        self.iterations = iterations
        self.quantum = quantum

    def build(self, dataflow, edges):
        seeds = self.seeds
        vertices = edges.flat_map(
            lambda rec: (rec[0], rec[1][0]), name="ppr.endpoints").distinct(
            name="ppr.vertices")
        degrees = edges.map(
            lambda rec: (rec[0], rec[1][0]), name="ppr.outedges"
        ).count_by_key(name="ppr.degrees")
        zeros = vertices.map(lambda v: (v, 0), name="ppr.zeros")

        # Seed normalization: only seeds present in the view carry restart
        # mass, split equally among however many of them exist.
        present = vertices.filter(lambda v: v in seeds, name="ppr.present")
        seed_count = present.map(lambda v: (0, None),
                                 name="ppr.seedkey").count_by_key(
            name="ppr.seedcount")
        share = present.map(lambda v: (0, v), name="ppr.enumerate").join(
            seed_count, lambda _k, v, n: (v, n), name="ppr.share")
        teleport = share.map(lambda rec: (rec[0], BASE // rec[1]),
                             name="ppr.teleport")
        initial = share.map(lambda rec: (rec[0], SCALE // rec[1]),
                            name="ppr.init")
        base = teleport.concat(zeros).sum_by_key(name="ppr.base")

        quantum = self.quantum
        e_arr = edges.arrange_by_key(name="ppr.edges")

        def body(inner, scope):
            e = e_arr.enter(scope)
            deg = scope.enter(degrees)
            restart = scope.enter(base)
            per_edge_share = inner.join(
                deg, lambda v, rank, d: (v, rank // d), name="ppr.spread")
            contributions = per_edge_share.join_arranged(
                e,
                lambda u, amount, dw: (
                    dw[0], (DAMPING_NUM * amount) // DAMPING_DEN),
                name="ppr.contrib")
            summed = contributions.concat(restart).sum_by_key(
                name="ppr.sum")
            return summed.map(
                lambda rec: (
                    rec[0],
                    ((rec[1] + quantum // 2) // quantum) * quantum),
                name="ppr.rank")

        return initial.iterate(body, max_iters=self.iterations,
                               name="ppr.loop")
