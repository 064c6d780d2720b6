"""Christofides' 1.5-approximation for metric TSP.

Pipeline: minimum spanning tree (Prim) → minimum-weight perfect matching of
the odd-degree vertices (:func:`min_weight_perfect_matching`, an exact
primal-dual blossom algorithm over the dense weight sub-matrix) → Eulerian
circuit of the union multigraph (Hierholzer) → shortcut repeated vertices.

The Hamming-distance graph of the padded EBM satisfies the triangle
inequality (Haddadi & Layouni 2008), so the 1.5 bound applies and COP
inherits a factor-3 guarantee (paper §4). Up to one odd vertex per view can
need matching, so the matching is the step that grows with the collection:
it keeps its duals, labels and least-slack edges in arrays, and a vertex
scan or a dual update is a few vector operations.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.errors import OrderingError


def prim_mst(weights: np.ndarray) -> List[tuple]:
    """Minimum spanning tree edges of a complete graph (Prim's algorithm)."""
    n = weights.shape[0]
    if n == 0:
        return []
    in_tree = [False] * n
    best_cost = [np.inf] * n
    best_edge = [-1] * n
    best_cost[0] = 0
    edges: List[tuple] = []
    for _ in range(n):
        u = -1
        for v in range(n):
            if not in_tree[v] and (u == -1 or best_cost[v] < best_cost[u]):
                u = v
        in_tree[u] = True
        if best_edge[u] >= 0:
            edges.append((best_edge[u], u))
        for v in range(n):
            if not in_tree[v] and weights[u, v] < best_cost[v]:
                best_cost[v] = weights[u, v]
                best_edge[v] = u
    return edges


class _Blossoms:
    """Edmonds' primal-dual blossom algorithm on a dense symmetric matrix.

    This is Galil's O(n³) formulation of maximum-weight matching, run with
    maximum cardinality on the negated weights: on a complete graph with an
    even vertex count that is a minimum-weight perfect matching. Vertices
    are ``0..n-1`` and non-trivial blossoms ``n..2n-1``. Duals are doubled
    so integer weights stay integer: the slack of a pair in two different
    top-level blossoms is ``dual[v] + dual[w] + 2·W[v, w]``, and a blossom
    ``b`` adds ``2·dual[b]`` to every pair inside it.

    Per stage, ``best[w]`` is the S-vertex (outside ``w``'s top-level
    blossom) with the least slack to ``w``. Every S-vertex's dual falls by
    the same amount in a dual update, so that choice stays right until
    blossoms merge; a scan updates it for all ``w`` in one vector pass, and
    the least-slack searches for the next dual step read it directly.
    """

    def __init__(self, weights: np.ndarray):
        n = weights.shape[0]
        self.n = n
        self.two_w = 2 * weights
        self.vertices = np.arange(n)
        self.dual = np.zeros(2 * n, dtype=weights.dtype)
        off_diagonal = weights[~np.eye(n, dtype=bool)]
        self.dual[:n] = -off_diagonal.min() if off_diagonal.size else 0
        self.mate = np.full(n, -1)
        self.label = np.zeros(2 * n, dtype=np.int8)   # 0 free, 1 S, 2 T
        # The edge (from, to) through which a blossom or vertex got its
        # label; ``to`` lies inside it. A root has from == -1.
        self.label_from = np.full(2 * n, -1)
        self.label_to = np.full(2 * n, -1)
        self.in_blossom = np.arange(n)
        self.parent = np.full(2 * n, -1)
        self.base = np.concatenate([np.arange(n), np.full(n, -1)])
        self.children: List[List[int]] = [[] for _ in range(2 * n)]
        self.edges: List[List[Tuple[int, int]]] = [[] for _ in range(2 * n)]
        self.leaves: List[np.ndarray] = \
            [np.array([v]) for v in range(n)] + [self.vertices[:0]] * n
        self.best = np.full(n, -1)
        self.allowed = np.zeros((n, n), dtype=bool)
        self.unused = list(range(2 * n - 1, n - 1, -1))
        self.queue: List[int] = []
        self.integral = weights.dtype.kind == "i"
        self.infinity = np.iinfo(np.int64).max if self.integral else np.inf

    # -- labels and the alternating forest --------------------------------

    def assign(self, w: int, label: int, v: int) -> None:
        """Label ``w``'s top-level blossom S (queue its leaves for a scan)
        or T (and its base's mate S), reached over the pair ``(v, w)``."""
        b = self.in_blossom[w]
        self.label[w] = self.label[b] = label
        self.label_from[w] = self.label_from[b] = v
        self.label_to[w] = self.label_to[b] = w
        if label == 1:
            self.queue.extend(self.leaves[b].tolist())
        else:
            base = self.base[b]
            self.assign(int(self.mate[base]), 1, int(base))

    def scan_blossom(self, v: int, w: int) -> int:
        """Trace the two tree paths up from ``v`` and ``w``: the base of
        the new blossom where they meet, or -1 for an augmenting path."""
        path = []
        base = -1
        while v != -1:
            b = self.in_blossom[v]
            if self.label[b] & 4:   # visited from the other side
                base = int(self.base[b])
                break
            path.append(b)
            self.label[b] = 5       # S, marked visited
            v = int(self.label_from[b])
            if v != -1:
                v = int(self.label_from[self.in_blossom[v]])
            if w != -1:
                v, w = w, v
        for b in path:
            self.label[b] = 1
        return base

    def add_blossom(self, base: int, v: int, w: int) -> None:
        """Shrink the odd cycle that the tight S-S pair ``(v, w)`` closes
        through ``base`` into a new S-blossom."""
        bb, bv, bw = (self.in_blossom[base], self.in_blossom[v],
                      self.in_blossom[w])
        b = self.unused.pop()
        self.base[b] = base
        self.parent[b] = -1
        self.parent[bb] = b
        path, edges = [], [(v, w)]
        while bv != bb:
            self.parent[bv] = b
            path.append(bv)
            edges.append((int(self.label_from[bv]), int(self.label_to[bv])))
            bv = self.in_blossom[self.label_from[bv]]
        path.append(bb)
        path.reverse()
        edges.reverse()
        while bw != bb:
            self.parent[bw] = b
            path.append(bw)
            edges.append((int(self.label_to[bw]), int(self.label_from[bw])))
            bw = self.in_blossom[self.label_from[bw]]
        self.children[b] = [int(c) for c in path]
        self.edges[b] = edges
        self.label[b] = 1
        self.label_from[b] = self.label_from[bb]
        self.label_to[b] = self.label_to[bb]
        self.dual[b] = 0
        leaves = np.concatenate([self.leaves[c] for c in path])
        self.leaves[b] = leaves
        was_t = leaves[self.label[self.in_blossom[leaves]] == 2]
        self.queue.extend(was_t.tolist())
        self.in_blossom[leaves] = b
        # Least-slack partners that the merge swallowed: search again
        # among the S-vertices outside the new blossom.
        partner = self.best[leaves]
        stale = leaves[(partner >= 0)
                       & (self.in_blossom[np.maximum(partner, 0)] == b)]
        if stale.size:
            outside = np.flatnonzero(
                (self.label[self.in_blossom] == 1) & (self.in_blossom != b))
            if outside.size:
                slack = self.dual[outside] + self.two_w[np.ix_(stale, outside)]
                self.best[stale] = outside[slack.argmin(axis=1)]
            else:
                self.best[stale] = -1

    def expand(self, b: int, end_of_stage: bool) -> None:
        """Dissolve blossom ``b`` into its children: a T-blossom whose dual
        reached zero mid-stage, or a zero-dual S-blossom between stages."""
        n = self.n
        label = self.label
        for s in self.children[b]:
            self.parent[s] = -1
            if s < n:
                self.in_blossom[s] = s
            elif end_of_stage and self.dual[s] == 0:
                self.expand(s, end_of_stage)
            else:
                self.in_blossom[self.leaves[s]] = s
        if not end_of_stage and label[b] == 2:
            # Relabel the sub-blossoms on the even path from the entry
            # child to the base; the rest become free or keep T-vertices.
            children, edges = self.children[b], self.edges[b]
            entry = self.in_blossom[self.label_to[b]]
            j = children.index(entry)
            if j & 1:
                j -= len(children)
                step = 1
            else:
                step = -1
            v, w = int(self.label_from[b]), int(self.label_to[b])
            while j != 0:
                p, q = edges[j] if step == 1 else edges[j - 1][::-1]
                label[w] = label[q] = 0
                self.assign(w, 2, v)
                self.allowed[p, q] = self.allowed[q, p] = True
                j += step
                v, w = edges[j] if step == 1 else edges[j - 1][::-1]
                self.allowed[v, w] = self.allowed[w, v] = True
                j += step
            bw = children[j]
            label[w] = label[bw] = 2
            self.label_from[w] = self.label_from[bw] = v
            self.label_to[w] = self.label_to[bw] = w
            j += step
            while children[j] != entry:
                bv = children[j]
                j += step
                if label[bv] == 1:
                    continue
                leaves = self.leaves[bv]
                marked = leaves[label[leaves] != 0]
                if marked.size:
                    v = int(marked[0])
                    label[v] = 0
                    label[self.mate[self.base[bv]]] = 0
                    self.assign(v, 2, int(self.label_from[v]))
        label[b] = 0
        self.label_from[b] = self.label_to[b] = -1
        self.base[b] = -1
        self.dual[b] = 0
        self.children[b], self.edges[b] = [], []
        self.leaves[b] = self.vertices[:0]
        self.unused.append(b)

    # -- augmentation -----------------------------------------------------

    def augment_blossom(self, b: int, v: int) -> None:
        """Rotate blossom ``b`` so that its leaf ``v`` becomes the base,
        flipping the matched/unmatched edges on the path between them."""
        t = v
        while self.parent[t] != b:
            t = self.parent[t]
        if t >= self.n:
            self.augment_blossom(t, v)
        children, edges = self.children[b], self.edges[b]
        i = j = children.index(t)
        if i & 1:
            j -= len(children)
            step = 1
        else:
            step = -1
        while j != 0:
            j += step
            t = children[j]
            w, x = edges[j] if step == 1 else edges[j - 1][::-1]
            if t >= self.n:
                self.augment_blossom(t, w)
            j += step
            t = children[j]
            if t >= self.n:
                self.augment_blossom(t, x)
            self.mate[w], self.mate[x] = x, w
        self.children[b] = children[i:] + children[:i]
        self.edges[b] = edges[i:] + edges[:i]
        self.base[b] = self.base[self.children[b][0]]

    def augment(self, v: int, w: int) -> None:
        """Flip the augmenting path through the tight pair ``(v, w)``,
        walking each side back to its tree's root."""
        for s, j in ((v, w), (w, v)):
            while True:
                bs = self.in_blossom[s]
                if bs >= self.n:
                    self.augment_blossom(bs, s)
                self.mate[s] = j
                t = self.label_from[bs]
                if t == -1:
                    break
                bt = self.in_blossom[t]
                s, j = int(self.label_from[bt]), int(self.label_to[bt])
                if bt >= self.n:
                    self.augment_blossom(bt, j)
                self.mate[j] = s

    # -- one stage: grow the forest until an augmenting path --------------

    def scan(self, batch: List[int]) -> bool:
        """Label along the tight pairs of the S-vertices in ``batch``, then
        offer each as least-slack partner to every vertex outside its
        blossom, the whole batch as one block. Returns True when it
        augmented the matching."""
        sources = np.array(batch)
        # Each pair's slack less dual[w], which is the same down a column.
        rows = self.dual[sources, None] + self.two_w[sources]
        tight = (rows + self.dual[:self.n] <= 0) | self.allowed[sources]
        tight &= self.in_blossom[sources, None] != self.in_blossom
        for i in np.flatnonzero(tight.any(axis=1)).tolist():
            v = batch[i]
            for w in np.flatnonzero(tight[i]).tolist():
                bw = self.in_blossom[w]
                if bw == self.in_blossom[v]:
                    continue
                self.allowed[v, w] = self.allowed[w, v] = True
                if self.label[bw] == 0:
                    self.assign(w, 2, v)
                elif self.label[bw] == 1:
                    base = self.scan_blossom(v, w)
                    if base == -1:
                        self.augment(v, w)
                        return True
                    self.add_blossom(base, v, w)
                elif self.label[w] == 0:
                    self.label[w] = 2
                    self.label_from[w], self.label_to[w] = v, w
        rows = np.where(self.in_blossom[sources, None] != self.in_blossom,
                        rows, self.infinity)
        pick = rows.argmin(axis=0)
        least = rows[pick, self.vertices]
        partner = np.maximum(self.best, 0)
        current = self.dual[partner] + self.two_w[partner, self.vertices]
        better = (least < self.infinity) & (
            (self.best < 0) | (least < current))
        self.best[better] = sources[pick[better]]
        return False

    def dual_step(self) -> None:
        """Move the duals by the largest step that keeps them feasible,
        and act on the pair or blossom that bounds it."""
        n = self.n
        top_label = self.label[self.in_blossom]
        partner = np.maximum(self.best, 0)
        slack = (self.dual[partner] + self.dual[:n]
                 + self.two_w[partner, self.vertices])
        # Kind 2: a free vertex's least slack to an S-vertex. Kind 3: half
        # the least slack between two S-blossoms (even for integer
        # weights, as every labelled dual keeps one parity). Kind 4: the
        # least T-blossom dual.
        kind, delta, at = 0, None, -1
        for label in (0, 1):
            candidates = np.flatnonzero((top_label == label)
                                        & (self.best >= 0))
            if candidates.size:
                w = candidates[slack[candidates].argmin()]
                d = slack[w]
                if label == 1:
                    d = d // 2 if self.integral else d / 2
                if delta is None or d < delta:
                    kind, delta, at = 2 + label, d, int(w)
        top = np.flatnonzero((self.base[n:] >= 0) & (self.parent[n:] == -1)
                             & (self.label[n:] == 2)) + n
        if top.size:
            b = top[self.dual[top].argmin()]
            if delta is None or self.dual[b] < delta:
                kind, delta, at = 4, self.dual[b], int(b)
        if delta is None:
            raise OrderingError("matching found no augmenting path")
        shift = (top_label == 2).astype(self.dual.dtype) - (top_label == 1)
        self.dual[:n] += delta * shift
        blossoms = (self.base[n:] >= 0) & (self.parent[n:] == -1)
        self.dual[n:] += delta * (
            (blossoms & (self.label[n:] == 1)).astype(self.dual.dtype)
            - (blossoms & (self.label[n:] == 2)))
        if kind == 4:
            self.expand(at, end_of_stage=False)
            return
        v = int(self.best[at])
        self.allowed[v, at] = self.allowed[at, v] = True
        self.queue.append(v if kind == 2 else at)

    def solve(self) -> np.ndarray:
        n = self.n
        while True:
            self.label[:] = 0
            self.label_from[:] = -1
            self.label_to[:] = -1
            self.best[:] = -1
            self.allowed[:] = False
            self.queue = []
            for v in np.flatnonzero(self.mate < 0).tolist():
                if self.label[self.in_blossom[v]] == 0:
                    self.assign(v, 1, -1)
            if not self.queue:
                return self.mate
            augmented, steps = False, 0
            while not augmented:
                while self.queue and not augmented:
                    batch, self.queue = self.queue, []
                    augmented = self.scan(batch)
                if not augmented:
                    # Each step labels a blossom T, closes a blossom or
                    # expands one: fewer than 4n per stage.
                    steps += 1
                    if steps > 8 * (n + 1):
                        raise OrderingError("matching stopped making progress")
                    self.dual_step()
            # S-blossoms whose dual fell to zero dissolve between stages.
            spent = np.flatnonzero(
                (self.base[n:] >= 0) & (self.parent[n:] == -1)
                & (self.label[n:] == 1) & (self.dual[n:] == 0)) + n
            for b in spent.tolist():
                self.expand(b, end_of_stage=True)

    # -- the LP optimality certificate ------------------------------------

    def certify(self) -> None:
        """Raise unless ``mate`` is a perfect matching that the duals prove
        optimal: every pair dual-feasible, every matched pair tight, every
        blossom dual non-negative and every positive-dual blossom full."""
        n = self.n
        mate = self.mate
        if ((mate < 0).any() or (mate == self.vertices).any()
                or (mate[np.maximum(mate, 0)] != self.vertices).any()):
            raise OrderingError("matching is not perfect")
        scale = float(np.abs(self.two_w).max()) / 2 if n else 0.0
        tolerance = 0 if self.integral else 1e-9 * scale
        inside = np.zeros((n, n), dtype=self.dual.dtype)
        for b in range(n, 2 * n):
            if self.base[b] < 0 or self.dual[b] == 0:
                continue
            if self.dual[b] < -tolerance:
                raise OrderingError(f"blossom {b} has negative dual")
            leaves = self.leaves[b]
            if np.isin(mate[leaves], leaves).sum() != leaves.size - 1:
                raise OrderingError(f"blossom {b} has a positive dual but "
                                    f"is not full")
            inside[np.ix_(leaves, leaves)] += self.dual[b]
        slack = (self.dual[:n, None] + self.dual[None, :n] + self.two_w
                 + 2 * inside)
        np.fill_diagonal(slack, 0)
        if (slack < -tolerance).any():
            raise OrderingError("matching duals are infeasible")
        if (np.abs(slack[self.vertices, mate]) > tolerance).any():
            raise OrderingError("a matched pair is not tight")


def min_weight_perfect_matching(weights: np.ndarray) -> np.ndarray:
    """Exact minimum-weight perfect matching of a complete graph.

    ``weights`` is a symmetric matrix over an even number of vertices;
    the diagonal is ignored. Returns ``mate`` with ``mate[v]`` the vertex
    matched to ``v``. Integer weights are solved in integers; the result's
    LP optimality certificate is checked before returning (exactly for
    integers, to a relative 1e-9 for floats) and a failure raises
    :class:`OrderingError`.
    """
    weights = np.asarray(weights)
    n = weights.shape[0]
    if weights.shape != (n, n) or n % 2:
        raise OrderingError(f"perfect matching needs a square matrix over "
                            f"an even vertex count, got {weights.shape}")
    dtype = np.int64 if weights.dtype.kind in "biu" else np.float64
    weights = weights.astype(dtype, copy=False)
    blossoms = _Blossoms(weights)
    mate = blossoms.solve()
    blossoms.certify()
    return mate


def _eulerian_circuit(n: int, multi_edges: List[tuple]) -> List[int]:
    """Hierholzer's algorithm on an (even-degree) multigraph."""
    adjacency: Dict[int, List[List]] = {v: [] for v in range(n)}
    edge_slots = []
    for idx, (u, v) in enumerate(multi_edges):
        slot = [u, v, False]
        edge_slots.append(slot)
        adjacency[u].append(slot)
        adjacency[v].append(slot)
    start = multi_edges[0][0] if multi_edges else 0
    stack = [start]
    circuit: List[int] = []
    pointers = {v: 0 for v in range(n)}
    while stack:
        v = stack[-1]
        advanced = False
        while pointers[v] < len(adjacency[v]):
            slot = adjacency[v][pointers[v]]
            if slot[2]:
                pointers[v] += 1
                continue
            slot[2] = True
            other = slot[1] if slot[0] == v else slot[0]
            stack.append(other)
            advanced = True
            break
        if not advanced:
            circuit.append(stack.pop())
    circuit.reverse()
    return circuit


def christofides_tour(weights: np.ndarray) -> List[int]:
    """Return a Hamiltonian tour (vertex list, no repeat of the start).

    ``weights`` must be a symmetric matrix satisfying the triangle
    inequality (up to the usual metric-TSP caveats).
    """
    weights = np.asarray(weights)
    n = weights.shape[0]
    if weights.shape != (n, n):
        raise OrderingError(f"weight matrix must be square, got {weights.shape}")
    if n == 0:
        return []
    if n == 1:
        return [0]
    if n == 2:
        return [0, 1]
    mst = prim_mst(weights)
    degree = np.zeros(n, dtype=int)
    for u, v in mst:
        degree[u] += 1
        degree[v] += 1
    odd = np.flatnonzero(degree % 2)
    mate = min_weight_perfect_matching(weights[np.ix_(odd, odd)])
    matching = [(int(odd[i]), int(odd[j])) for i, j in enumerate(mate)
                if i < j]
    circuit = _eulerian_circuit(n, mst + matching)
    seen = set()
    tour: List[int] = []
    for v in circuit:
        if v not in seen:
            seen.add(v)
            tour.append(v)
    if len(tour) != n:
        raise OrderingError(
            f"tour covers {len(tour)} of {n} vertices; multigraph was not "
            f"connected")
    return tour


def tour_length(weights: np.ndarray, tour: List[int]) -> float:
    """Cyclic tour length under ``weights``."""
    total = 0.0
    for i, u in enumerate(tour):
        v = tour[(i + 1) % len(tour)]
        total += float(weights[u, v])
    return total
