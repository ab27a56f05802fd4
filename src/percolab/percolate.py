"""Site percolation by DFS exploration with epoch accounting.

The explorer maintains four disjoint vertex sets: S (fully explored), T (not
yet visited), U (the stack), W (queried and rejected). One retention bit is
consumed per vertex, at the moment it leaves T, so exactly n bits are
consumed in all:

  * Roots: a loop over the vertices in ascending index queries each one
    still in T when U is empty; a retained root opens a new epoch, a
    rejected one goes to W.
  * U is a stack of neighbor-list iterators, one per retained vertex on it.
    The top iterator yields its vertex's neighbors in ascending index and
    queries each one still in T; the first retained one is pushed, and an
    exhausted iterator is popped (its vertex moves to S). Because T only
    shrinks, an iterator resumed after a pop never misses a T-neighbor.

An epoch is the interval between two consecutive emptyings of U, recorded as
(start, end) 0-based query indices; each epoch reveals exactly one connected
component of the induced subgraph on retained vertices. The retained set is
the union of the components, and the rejected set W is derived from it as the
complement.

A stream draws one uniform u_v per vertex from the root stream of the seed
and retains v iff u_v < rho. Each vertex is queried once, and which vertex
comes next depends only on earlier bits, so these are i.i.d. Bernoulli(rho)
bits in query order. Because the uniform is attached to the vertex rather
than the query position, runs with the same seed are exactly coupled:
retained(rho1) is a subset of retained(rho2) whenever rho1 <= rho2.

The retained set `keep` is thus fixed before any query, so the
exploration's outcome is a function of `keep` alone, and it is computed
from the retained rows without replaying the queries:

  * Each epoch's root is the least vertex of its component: every smaller
    vertex left T before the root loop reached it, and a smaller retained
    one would have reached the root through the component. So the
    components of G[keep] in min-vertex order are the epochs' components.
    They are found without a Python loop over vertices or edges: a numpy
    min-label search (`_least_labels`) over the induced edges, each taken
    once from the retained rows, labels every retained vertex with the
    least vertex of its component, and one sort of (label, vertex) keys
    lists the components with their members in ascending order.
  * Every vertex is queried exactly once: by the root loop at its own turn,
    or inside the epoch of a root below it. Call that root, or the vertex
    itself, the vertex's anchor. A retained vertex's anchor is its
    component's root. A rejected vertex w is reached by the first epoch
    adjacent to it if that epoch's root lies below w, and by the root loop
    otherwise, so its anchor is the least of w and the roots of its retained
    neighbours. The root loop visits anchors in ascending order and each
    epoch directly follows its root's own query, so the query order is a
    sort by anchor, and with r_e the root of epoch e
        start_e = |{v : anchor(v) < r_e}|
        end_e = start_e + |{v : anchor(v) = r_e}| - 1.
    One unbuffered minimum over the retained rows finds the anchors. A
    retained neighbour lies in the same component and brings its own root,
    so no border filter is needed.

`dfs_percolate` itself computes only the retained ids and each one's label,
which is all a sweep row (retained, L1, L2) reads: the component sizes are
one `bincount` of the labels. The returned `PercolationOutcome` holds a
reference to its host and builds `retained`, `rejected`, `components`,
`largest` and `epochs` as Python lists on first read; `epochs` gathers the
retained rows of the host again for the anchors.

Runs of one seed at several rho share the work below their largest rho,
top (Newman & Ziff, PRE 64, 016706 (2001)). Since the retained sets are
nested, an induced edge (a, b) of G[keep(top)] is in G[keep(rho)] exactly
when it has arrived, max(u_a, u_b) < rho, and components only merge as rho
grows. So streams made together (`BernoulliStream.coupled`) share one walk:
the first run draws the uniforms and gathers the rows of keep(top) once,
keeping the induced edges in arrival order, and each run at rho extends one
min-label forest by the edges that arrived since the walk's last rho. It
rebuilds the forest from singletons instead when rho went down, or when as
many edges arrived as the forest holds. A lone stream is a walk of one rho:
every edge of the gather has arrived at top, so it sorts nothing.
"""

from dataclasses import dataclass, field
from functools import cached_property
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import InvalidParameter, require_finite, require_int
from .graph import _CODEGREE_CHUNK_KEYS, Graph, adjacency_rows, vertex_set
from .rng import uniforms


@dataclass(frozen=True)
class BernoulliStream:
    """Retention-bit source for one percolation run: the per-vertex uniforms
    of `seed` against rho. Streams made by `coupled` share their seed's
    walk; any other stream walks alone."""

    rho: float
    seed: int = 0
    _walk: Optional["_Walk"] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        # frozen: the gated plain numbers replace the given ones
        object.__setattr__(self, "seed", require_int("seed", self.seed))
        [rho] = require_finite(rho=self.rho)
        if not 0.0 <= rho <= 1.0:
            raise InvalidParameter(f"rho must be in [0, 1], got {rho}")
        object.__setattr__(self, "rho", rho)

    @classmethod
    def coupled(cls, rhos: Sequence[float], seed: int = 0) -> List["BernoulliStream"]:
        """The streams of `seed` at each of `rhos`, in order, sharing one
        walk (see the module docstring): runs at ascending rho each cost
        only the edges that arrived since the last, and any order stays
        exact."""
        streams = [cls(rho, seed) for rho in rhos]
        if streams:
            walk = _Walk(streams[0].seed, [s.rho for s in streams])
            for s in streams:
                object.__setattr__(s, "_walk", walk)
        return streams


@dataclass(eq=False)
class PercolationOutcome:
    """One run's outcome on the host `g`, which it keeps a reference to:
    `ids`, the retained vertices ascending, and `labels`, each one's
    component root as an index into `ids`. The list fields are built on
    first read (see the module docstring). Two outcomes are equal when their
    retained sets, components, epochs, bits, rho and seed are."""

    g: Graph = field(repr=False)
    ids: np.ndarray
    labels: np.ndarray
    rho: float
    seed: int = 0

    @property
    def bits_consumed(self) -> int:
        return self.g.n

    @cached_property
    def sizes(self) -> np.ndarray:
        """The component sizes in root order."""
        count = np.bincount(self.labels)
        return count[count > 0]

    @cached_property
    def retained(self) -> List[int]:
        return self.ids.tolist()

    @cached_property
    def rejected(self) -> List[int]:
        """The queried vertices that were not retained, in ascending order."""
        rejected = np.ones(self.g.n, dtype=bool)
        rejected[self.ids] = False
        return np.flatnonzero(rejected).tolist()

    @cached_property
    def _members(self) -> np.ndarray:
        """The retained ids by component in root order, each one ascending."""
        return self.ids[np.argsort(self.labels, kind="stable")]

    @cached_property
    def components(self) -> List[List[int]]:
        members, ends = self._members.tolist(), np.cumsum(self.sizes).tolist()
        return [members[a:b] for a, b in zip([0] + ends, ends)]

    @cached_property
    def largest(self) -> List[int]:
        """The largest component, ascending, the one with the least root among
        equals; [] when nothing is retained."""
        if not len(self.sizes):
            return []
        j = int(np.argmax(self.sizes))
        end = int(self.sizes[:j + 1].sum())
        return self._members[end - self.sizes[j]:end].tolist()

    @cached_property
    def epochs(self) -> List[Tuple[int, int]]:
        """Each component's (start, end) query indices, from each vertex's
        anchor (see the module docstring)."""
        n, ret, labels = self.g.n, self.ids, self.labels
        root = ret.take(labels)
        anchor = np.arange(n)
        anchor[ret] = root
        i, w = adjacency_rows(self.g, ret)
        np.minimum.at(anchor, w, root.take(i))
        del i, w
        count = np.bincount(anchor, minlength=n)
        roots = ret[labels == np.arange(len(ret))]  # a root is its own label
        starts = (np.cumsum(count) - count)[roots]
        return list(zip(starts.tolist(), (starts + count[roots] - 1).tolist()))

    def __eq__(self, other):
        if not isinstance(other, PercolationOutcome):
            return NotImplemented
        return all(getattr(self, f) == getattr(other, f) for f in
                   ("retained", "components", "epochs", "bits_consumed", "rho", "seed"))


def dfs_percolate(g: Graph, stream: BernoulliStream) -> PercolationOutcome:
    """The four-set exploration's outcome, deterministic given (g, stream),
    from the rows of the retained vertices (see the module docstring). Only
    the retained ids and their component labels are computed here, on the
    walk of the stream's seed."""
    walk = stream._walk or _Walk(stream.seed, [stream.rho])
    ids, labels = walk.run(g, stream.rho)
    return PercolationOutcome(g, ids, labels, stream.rho, stream.seed)


class _Walk:
    """The runs of one seed at the given rhos (see the module docstring):
    the retained ids `ret` at their largest, `top`, ascending, with their
    uniforms `u`, and the induced edges (a, b) as local ids a < b into
    `ret`, in arrival order when the rhos differ; `cuts[rho]` edges have
    arrived at rho. `root` is the forest of the first `done` edges, that of
    the walk's last rho, once a run has made it."""

    def __init__(self, seed: int, rhos: List[float]):
        self.seed, self.rhos, self.top = seed, rhos, max(rhos)
        self.g = None

    def _gather(self, g: Graph):
        u = uniforms(self.seed, g.n)
        ret = np.flatnonzero(u < self.top)
        u = u[ret]
        m = len(ret)
        i, w = adjacency_rows(g, ret)
        # local ids 0..m-1 ascend with ret; -1 marks a rejected vertex. Each
        # array is dropped once read, which bounds a dense run's peak.
        local = np.full(g.n, -1, dtype=np.int32)
        local[ret] = np.arange(m, dtype=np.int32)
        # take copies its index to int64 first, so it reads w a range at a time
        lw = np.empty(len(w), dtype=np.int32)
        for s in range(0, len(w), _CODEGREE_CHUNK_KEYS):
            local.take(w[s:s + _CODEGREE_CHUNK_KEYS], out=lw[s:s + _CODEGREE_CHUNK_KEYS])
        del w
        up = lw > i  # each induced edge once
        a = i[up]
        del i
        b = lw[up]
        del lw, up
        self.cuts = {self.top: len(a)}  # every edge has arrived at top
        if len(set(self.rhos)) > 1:
            arrival = u[a]
            np.maximum(arrival, u[b], out=arrival)
            order = np.argsort(arrival)
            self.cuts = dict(zip(self.rhos, np.searchsorted(arrival, self.rhos, sorter=order).tolist()))
            del arrival
            a = a[order]
            b = b[order]
        self.g, self.ret, self.u, self.a, self.b = g, ret, u, a, b
        self.done, self.rho = 0, 0.0

    def run(self, g: Graph, rho: float) -> Tuple[np.ndarray, np.ndarray]:
        """(ids, labels) of the run at rho, one of the walk's rhos, on g."""
        if self.g is not g:
            self._gather(g)
        k = self.cuts[rho]
        # below the last rho, or with as many new edges as old, the forest
        # starts again from singletons: that costs no more than the new
        # edges twice, and only the new edges of a smaller half are mapped
        if rho < self.rho or k - self.done >= self.done:
            self.root, self.done = np.arange(len(self.ret)), 0
        a, b = self.a[self.done:k], self.b[self.done:k]
        if self.done:  # the forest has edges: the new ones join it at its roots
            a = self.root[a]
            b = self.root[b]
            a, b = np.minimum(a, b), np.maximum(a, b, out=b)
        self.root = _least_labels(a, b, self.root)
        self.done, self.rho = k, rho
        if rho == self.top:
            return self.ret, self.root
        keep = self.u < rho
        # a retained vertex's root is retained: it lies in its component
        return self.ret[keep], (np.cumsum(keep) - 1)[self.root[keep]]


def _least_labels(a: np.ndarray, b: np.ndarray, root: np.ndarray) -> np.ndarray:
    """The forest `root` extended by the edges (a[k], b[k]), a[k] <= b[k],
    each a fixed point of it, in place or anew: root[x] becomes the least
    vertex of x's component in the graph on 0..len(root)-1 with the edges
    so far and these. `root` must label each vertex with the least vertex
    of its component so far, as np.arange does for the graph with no edge.

    Min-label search (Shiloach & Vishkin, J. Algorithms 3, 1982): hook the
    larger label of each edge under the smaller, then jump pointers to fixed
    points. Each round then replaces every edge by the labels of its ends and
    keeps only the edges whose labels still differ, so the edges stay pairs
    of fixed points and their arrays only shrink. Labels only go down and
    each stays a vertex of its component, so once no edge is left every
    component carries its least vertex. Every round hooks each tree that
    still has an edge onto another or another onto it, so the rounds are
    logarithmic in the vertex count."""
    while True:
        np.minimum.at(root, b, a)
        while True:
            hop = root[root]
            if np.array_equal(hop, root):
                break
            root = hop
        a = root[a]
        b = root[b]
        split = a != b
        if not split.any():
            return root
        # one edge array made at a time bounds a dense search's peak
        a = a[split]
        b = b[split]
        a, b = np.minimum(a, b), np.maximum(a, b, out=b)


def oracle_components(g: Graph, retained) -> List[List[int]]:
    """Connected components of G[retained] by union-find, ordered by minimum
    vertex, each sorted. Independent of the DFS code path.

    Vectorized over the CSR rows of the retained vertices: every round hooks
    the larger root of each retained edge under the smaller one and then
    compresses the pointers to fixed points, until every edge joins one root.
    Pointers only go down, so each root is its component's minimum vertex.
    """
    ret = vertex_set(g, retained)
    if not len(ret):
        return []
    i, v = adjacency_rows(g, ret)
    u = ret[i]
    in_r = np.zeros(g.n, dtype=bool)
    in_r[ret] = True
    keep = (u < v) & in_r[v]
    u, v = u[keep], v[keep]
    root = np.arange(g.n)
    while True:
        ru, rv = root[u], root[v]
        if np.array_equal(ru, rv):
            break
        np.minimum.at(root, np.maximum(ru, rv), np.minimum(ru, rv))
        while True:
            hop = root[root]
            if np.array_equal(hop, root):
                break
            root = hop
    labels = root[ret]
    order = np.argsort(labels, kind="stable")
    members, labels = ret[order].tolist(), labels[order]
    cuts = [0, *(np.flatnonzero(labels[1:] != labels[:-1]) + 1).tolist(), len(members)]
    return [members[a:b] for a, b in zip(cuts, cuts[1:])]


def largest_two(outcome: PercolationOutcome) -> Tuple[int, int]:
    """(L1, L2) component sizes; zeros fill in when fewer than two exist."""
    top = np.sort(outcome.sizes)[::-1][:2].tolist() + [0, 0]
    return top[0], top[1]
