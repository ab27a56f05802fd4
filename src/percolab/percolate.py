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
"""

from dataclasses import dataclass, field
from functools import cached_property
from typing import List, Tuple

import numpy as np

from .errors import InvalidParameter, require_finite, require_int
from .graph import Graph, adjacency_rows, vertex_set
from .rng import uniforms


@dataclass(frozen=True)
class BernoulliStream:
    """Retention-bit source for one percolation run: the per-vertex uniforms
    of `seed` against rho."""

    rho: float
    seed: int = 0

    def __post_init__(self):
        # frozen: the gated plain numbers replace the given ones
        object.__setattr__(self, "seed", require_int("seed", self.seed))
        [rho] = require_finite(rho=self.rho)
        if not 0.0 <= rho <= 1.0:
            raise InvalidParameter(f"rho must be in [0, 1], got {rho}")
        object.__setattr__(self, "rho", rho)


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
        sizes = self.sizes
        cuts = np.cumsum(sizes) - sizes
        # singletons come straight from the roots; only larger ones are sliced
        components = self._members[cuts, None].tolist()
        members = self._members.tolist()
        big = np.flatnonzero(sizes > 1)
        for j, at, size in zip(big.tolist(), cuts[big].tolist(), sizes[big].tolist()):
            components[j] = members[at:at + size]
        return components

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
    the retained ids and their component labels are computed here."""
    n = g.n
    ret = np.flatnonzero(uniforms(stream.seed, n) < stream.rho)
    m = len(ret)
    i, w = adjacency_rows(g, ret)
    # local ids 0..m-1 ascend with ret; -1 marks a rejected vertex. Each
    # gather array is dropped once read, which bounds a dense run's peak.
    local = np.full(n, -1, dtype=np.int32)
    local[ret] = np.arange(m, dtype=np.int32)
    lw = local.take(w)
    del w
    up = lw > i  # each induced edge once, as local ids a < b
    a = i[up]
    del i
    b = lw[up]
    del lw, up
    return PercolationOutcome(g, ret, _least_labels(a, b, m), stream.rho, stream.seed)


def _least_labels(a: np.ndarray, b: np.ndarray, m: int) -> np.ndarray:
    """root[x], the least vertex of x's component in the graph on 0..m-1
    with edges (a[k], b[k]), a[k] < b[k].

    Min-label search (Shiloach & Vishkin, J. Algorithms 3, 1982): hook the
    larger label of each edge under the smaller, then jump pointers to fixed
    points. Each round then replaces every edge by the labels of its ends and
    keeps only the edges whose labels still differ, so the edges stay pairs
    of fixed points and their arrays only shrink. Labels only go down and
    each stays a vertex of its component, so once no edge is left every
    component carries its least vertex. Every round hooks each tree that
    still has an edge onto another or another onto it, so the rounds are
    logarithmic in m."""
    root = np.arange(m)
    np.minimum.at(root, b, a)  # the first round: every label is its vertex
    while True:
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
        a, b = a[split], b[split]
        np.minimum.at(root, np.maximum(a, b), np.minimum(a, b))


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
