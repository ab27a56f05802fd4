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
    They are searched over the retained-to-retained entries only.
  * Number the components C_1, C_2, ... by root r_1 < r_2 < ... A rejected
    vertex w leaves T at the first query that reaches it. That is in epoch
    e when C_e is the first component adjacent to w and r_e < w; otherwise
    (no adjacent component, or r_e > w) the root loop queries it before
    any epoch reaches it.
  * Let E be the non-root vertices queried inside epochs: the retained
    non-roots and the rejected vertices of the rule above. Every vertex
    below r_e and every member of E queried in an earlier epoch is queried
    before r_e, and nothing else is, so
        start_e = r_e + |E queried before epoch e| - |{v in E : v < r_e}|
        end_e = start_e + (|C_e| - 1) + |rejected vertices queried in e|.
"""

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import InvalidParameter
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
        if self.seed < 0:
            raise InvalidParameter(f"seed must be >= 0, got {self.seed}")
        if not 0.0 <= self.rho <= 1.0:
            raise InvalidParameter(f"rho must be in [0, 1], got {self.rho}")


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
    keep = uniforms(stream.seed, n) < stream.rho
    ret = np.flatnonzero(keep)
    m = len(ret)
    i, w = adjacency_rows(g, ret)
    inside = keep[w]
    border_w, border_i = w[~inside].astype(np.int64), i[~inside]
    # the induced adjacency over local ids 0..m-1, which ascend with ret; a
    # memoryview yields its ids as Python ints without holding one per entry
    at = np.zeros(m + 1, dtype=np.int64)
    np.cumsum(np.bincount(i[inside], minlength=m), out=at[1:])
    del i
    local = np.empty(n, dtype=np.int32)
    local[ret] = np.arange(m, dtype=np.int32)
    nbrs, bounds = memoryview(local[w[inside]]), at.tolist()
    del w, inside
    # root[x] is the least local id in x's component. Searched in ascending
    # order, a component's other vertices all lie above its root, and an
    # unreached x still has root[x] = x.
    root = list(range(m))
    for s in np.flatnonzero(np.diff(at)).tolist():
        if root[s] < s:
            continue
        comp = [s]
        for x in comp:
            for y in nbrs[bounds[x]:bounds[x + 1]]:
                if root[y] > s:
                    root[y] = s
                    comp.append(y)
    root = np.array(root, dtype=np.int64)
    order = np.argsort(root, kind="stable")
    cuts = np.flatnonzero(np.diff(root[order], prepend=-1))
    sizes = np.diff(cuts, append=m)
    members = ret[order].tolist()
    components = [members[a:a + size] for a, size in zip(cuts.tolist(), sizes.tolist())]
    root_ids = order[cuts]
    roots = ret[root_ids]
    # the first component a rejected vertex borders is the one with the least
    # root; first[w] is that root's local id, m where w borders none. The
    # rejected vertices queried inside epochs are those above that root.
    first = np.full(n, m, dtype=np.int64)
    np.minimum.at(first, border_w, root[border_i])
    queried = np.flatnonzero(np.append(ret, n)[first] < np.arange(n))
    # each epoch's queries after its root, then E's members below each root:
    # the retained non-roots, then the rejected ones
    k = sizes - 1 + np.bincount(first[queried], minlength=m)[root_ids]
    below = root_ids - np.arange(len(cuts)) + np.searchsorted(queried, roots)
    starts = roots + np.cumsum(k) - k - below
    return PercolationOutcome(
        retained=ret.tolist(), components=components,
        epochs=list(zip(starts.tolist(), (starts + k).tolist())),
        bits_consumed=n, rho=stream.rho, seed=stream.seed)


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
    sizes = sorted((len(c) for c in outcome.components), reverse=True)
    l1 = sizes[0] if sizes else 0
    l2 = sizes[1] if len(sizes) > 1 else 0
    return l1, l2
