"""GraphBolt-style incremental PageRank.

Algorithm-specific maintenance: ranks are kept hot across graph updates;
after applying an edge delta, only *dirty* vertices (whose inputs changed)
are re-evaluated, and changes propagate along out-edges until quiescence —
the dependency-driven refinement loop GraphBolt's ``propagateDelta``
encodes. Semantics match ``repro.algorithms.PageRank`` exactly (same
integer arithmetic, damping, quantization, iteration cap), so results are
comparable record-for-record.

There is no undo cost and no difference-trace maintenance — which is why
specialized maintenance beats black-box differential maintenance for
PageRank (§7.5) — but every new algorithm needs new maintenance code,
which is the trade-off the paper rejects for a general view system.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Set, Tuple

from repro.algorithms.pagerank import BASE, DAMPING_DEN, DAMPING_NUM, SCALE

EdgePair = Tuple[int, int]

#: The rank grid: ``PageRank``'s default quantum.
QUANTUM = SCALE // 1000
#: Refinement rounds before giving up on quiescence: ten per iteration of
#: the 8-iteration PageRank the §7.5 experiment compares against.
MAX_ROUNDS = 80


class IncrementalPageRank:
    """Maintains integer PageRank over an evolving edge set."""

    def __init__(self):
        self.out_edges: Dict[int, Set[int]] = {}
        self.in_edges: Dict[int, Set[int]] = {}
        self.ranks: Dict[int, int] = {}
        #: vertex/edge touches — comparable to the engine's work units.
        self.work = 0

    # -- graph updates ---------------------------------------------------------

    def apply_diff(self, additions: Iterable[EdgePair],
                   removals: Iterable[EdgePair]) -> Dict[int, int]:
        """Apply an edge delta and refine ranks; returns current ranks."""
        dirty: Set[int] = set()
        for src, dst in removals:
            self.out_edges.get(src, set()).discard(dst)
            self.in_edges.get(dst, set()).discard(src)
            dirty.add(src)
            dirty.add(dst)
            self.work += 1
        for src, dst in additions:
            self.out_edges.setdefault(src, set()).add(dst)
            self.in_edges.setdefault(dst, set()).add(src)
            dirty.add(src)
            dirty.add(dst)
            self.work += 1
        self._sync_vertex_set()
        self._refine(dirty)
        return dict(self.ranks)

    def _sync_vertex_set(self) -> None:
        live = {v for v, outs in self.out_edges.items() if outs}
        live |= {v for v, ins in self.in_edges.items() if ins}
        for vertex in list(self.ranks):
            if vertex not in live:
                del self.ranks[vertex]
                self.work += 1
        for vertex in live:
            if vertex not in self.ranks:
                self.ranks[vertex] = SCALE
                self.work += 1

    # -- refinement -----------------------------------------------------------------

    def _evaluate(self, vertex: int) -> int:
        incoming = 0
        for src in self.in_edges.get(vertex, ()):
            outs = self.out_edges.get(src)
            if not outs:
                continue
            share = self.ranks.get(src, SCALE) // len(outs)
            incoming += (DAMPING_NUM * share) // DAMPING_DEN
            self.work += 1
        raw = BASE + incoming
        return ((raw + QUANTUM // 2) // QUANTUM) * QUANTUM

    def _refine(self, dirty: Set[int]) -> None:
        """Dependency-driven refinement from the dirty frontier.

        Runs until quiescence (quantization guarantees it), with a
        generous round cap as a safety net against grid oscillation.
        """
        frontier = {v for v in dirty if v in self.ranks}
        for _round in range(MAX_ROUNDS):
            if not frontier:
                break
            changed: Set[int] = set()
            # Evaluate the frontier synchronously against current ranks.
            updates: List[Tuple[int, int]] = []
            for vertex in sorted(frontier):
                new_rank = self._evaluate(vertex)
                self.work += 1
                if new_rank != self.ranks.get(vertex):
                    updates.append((vertex, new_rank))
            for vertex, new_rank in updates:
                self.ranks[vertex] = new_rank
                changed.add(vertex)
            # Changed ranks dirty their out-neighbours.
            frontier = set()
            for vertex in changed:
                frontier.update(self.out_edges.get(vertex, ()))
