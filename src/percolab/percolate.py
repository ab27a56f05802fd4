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

A stream without explicit bits draws one uniform u_v per vertex from the
root stream of the seed and retains v iff u_v < rho; because the uniform is
attached to the vertex rather than the query position, runs with the same
seed are exactly coupled: retained(rho1) is a subset of retained(rho2)
whenever rho1 <= rho2. A stream with explicit `bits` consumes that 0/1
sequence positionally, in query order (test injection), so only the
exploration itself can tell which bit a vertex gets.

With per-vertex bits the retained set `keep` is fixed before any query, so
the exploration's outcome is a function of `keep` alone, and it is computed
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
  * Number the components C_1, C_2, ... by root r_1 < r_2 < ... A rejected
    vertex w leaves T at the first query that reaches it. That is in epoch
    e when C_e is the first component adjacent to w and r_e < w; otherwise
    (no adjacent component, or r_e > w) the root loop queries it before
    any epoch reaches it. The first adjacent component is the least label
    over the border entries (retained x, rejected w) of the retained rows,
    taken with one unbuffered minimum into a length-n array; only the
    vertices that got a label then compare it with themselves.
  * Let E be the non-root vertices queried inside epochs: the retained
    non-roots and the rejected vertices of the rule above. Every vertex
    below r_e and every member of E queried in an earlier epoch is queried
    before r_e, and nothing else is, so
        start_e = r_e + |E queried before epoch e| - |{v in E : v < r_e}|
        end_e = start_e + (|C_e| - 1) + |rejected vertices queried in e|.
"""

import heapq
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import InvalidParameter, require_finite, require_int
from .graph import Graph, adjacency_rows, vertex_set
from .rng import uniforms


@dataclass(frozen=True)
class BernoulliStream:
    """Retention-bit source for one percolation run: explicit `bits` in query
    order when given, else the per-vertex uniforms of `seed` against rho."""

    rho: float
    seed: int = 0
    bits: Optional[Sequence[int]] = None

    def __post_init__(self):
        # frozen: the gated plain numbers replace the given ones
        object.__setattr__(self, "seed", require_int("seed", self.seed))
        [rho] = require_finite(rho=self.rho)
        if not 0.0 <= rho <= 1.0:
            raise InvalidParameter(f"rho must be in [0, 1], got {rho}")
        object.__setattr__(self, "rho", rho)


@dataclass
class PercolationOutcome:
    retained: List[int]
    components: List[List[int]]
    epochs: List[Tuple[int, int]]
    bits_consumed: int
    rho: float
    seed: int = 0

    @property
    def rejected(self) -> List[int]:
        """The queried vertices that were not retained, in ascending order."""
        kept = set(self.retained)
        return [v for v in range(self.bits_consumed) if v not in kept]


def dfs_percolate(g: Graph, stream: BernoulliStream) -> PercolationOutcome:
    """Run the four-set exploration; deterministic given (g, stream).

    Per-vertex bits go through `_retained_outcome`, which gives the same
    outcome from the retained subgraph; explicit bits are consumed by the
    exploration loop itself, in query order."""
    if stream.bits is None:
        return _retained_outcome(g, stream)
    n = g.n
    if len(stream.bits) != n:
        raise InvalidParameter(f"stream length {len(stream.bits)} != n = {n}")
    bits = [bool(b) for b in stream.bits]  # indexed by query number
    offsets = g.offsets
    nbrs = g.neighbors
    in_t = [True] * n
    components: List[List[int]] = []
    epochs: List[Tuple[int, int]] = []
    q = 0  # queries so far = bits consumed
    for r in range(n):
        if not in_t[r]:
            continue
        in_t[r] = False
        start = q
        q += 1
        if not bits[start]:
            continue
        comp = [r]
        stack = [iter(nbrs[offsets[r]:offsets[r + 1]].tolist())]
        while stack:
            for w in stack[-1]:
                if in_t[w]:
                    in_t[w] = False
                    q += 1
                    if bits[q - 1]:
                        comp.append(w)
                        stack.append(iter(nbrs[offsets[w]:offsets[w + 1]].tolist()))
                        break
            else:
                stack.pop()
        comp.sort()
        components.append(comp)
        epochs.append((start, q - 1))
    retained = sorted(v for comp in components for v in comp)
    return PercolationOutcome(
        retained=retained, components=components, epochs=epochs,
        bits_consumed=q, rho=stream.rho, seed=stream.seed)


def _retained_outcome(g: Graph, stream: BernoulliStream) -> PercolationOutcome:
    """The exploration's outcome for per-vertex bits, from the rows of the
    retained vertices (see the module docstring)."""
    n = g.n
    ret = np.flatnonzero(uniforms(stream.seed, n) < stream.rho)
    m = len(ret)
    i, w = adjacency_rows(g, ret)
    # local ids 0..m-1 ascend with ret; -1 marks a rejected vertex. Each
    # gather array is dropped once read, which bounds a dense run's peak.
    local = np.full(n, -1, dtype=np.int32)
    local[ret] = np.arange(m, dtype=np.int32)
    lw = local.take(w)
    # most entries of a sparse run are border entries (retained x, rejected
    # w), so they are taken by index rather than by mask
    border = np.flatnonzero(lw < 0)
    border_w = w.take(border)
    del w
    border_x = i.take(border)
    del border
    up = lw > i  # each induced edge once, as local ids a < b
    a = i[up]
    del i
    b = lw[up]
    del lw, up
    root = _least_labels(a, b, m)
    # components in root order, members ascending: one sort of the keys
    # root * m + x, all below m^2
    key = np.sort(root * m + np.arange(m))
    order = key % m
    cuts = np.flatnonzero(np.diff(key // m, prepend=-1))
    sizes = np.diff(cuts, append=m)
    root_ids = order[cuts]
    roots = ret[root_ids]
    # singletons come straight from the roots; only larger ones are sliced
    components = roots[:, None].tolist()
    members = ret[order].tolist()
    big = np.flatnonzero(sizes > 1)
    for j, at, size in zip(big.tolist(), cuts[big].tolist(), sizes[big].tolist()):
        components[j] = members[at:at + size]
    # first[w] is the least root among w's retained neighbors, m where w
    # has none; only the bordered vertices then test whether that root lies
    # below them, i.e. whether they are queried inside an epoch
    first = np.full(n, m)
    np.minimum.at(first, border_w, root.take(border_x))
    bordered = np.flatnonzero(first < m)
    queried = bordered[ret.take(first.take(bordered)) < bordered]
    # each epoch's queries after its root, then E's members below each root:
    # the retained non-roots, then the rejected ones
    k = sizes - 1 + np.bincount(first[queried], minlength=m)[root_ids]
    below = root_ids - np.arange(len(cuts)) + np.searchsorted(queried, roots)
    starts = roots + np.cumsum(k) - k - below
    return PercolationOutcome(
        retained=ret.tolist(), components=components,
        epochs=list(zip(starts.tolist(), (starts + k).tolist())),
        bits_consumed=n, rho=stream.rho, seed=stream.seed)


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
    top = heapq.nlargest(2, map(len, outcome.components)) + [0, 0]
    return top[0], top[1]
