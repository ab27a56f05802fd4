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

Bit streams come in two modes. uniform_threshold (default) draws one uniform
u_v per vertex from the root stream of the seed and retains v iff u_v < rho;
because the uniform is attached to the vertex rather than the query position,
runs with the same seed are exactly coupled: retained(rho1) is a subset of
retained(rho2) whenever rho1 <= rho2. explicit_bits consumes a supplied 0/1
sequence positionally, in query order (test injection).
"""

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import InvalidParameter, RhoOutOfRange, StreamLengthMismatch, VertexOutOfRange
from .graph import Graph
from .rng import uniforms

UNIFORM_THRESHOLD = "uniform_threshold"
EXPLICIT_BITS = "explicit_bits"


@dataclass(frozen=True)
class BernoulliStream:
    """Retention-bit source for one percolation run."""

    rho: float
    seed: int = 0
    mode: str = UNIFORM_THRESHOLD
    bits: Optional[Sequence[int]] = None

    def __post_init__(self):
        if self.mode not in (UNIFORM_THRESHOLD, EXPLICIT_BITS):
            raise InvalidParameter(f"unknown stream mode {self.mode!r}")
        if self.seed < 0:
            raise InvalidParameter(f"seed must be >= 0, got {self.seed}")
        if not 0.0 <= self.rho <= 1.0:
            raise RhoOutOfRange(f"rho must be in [0, 1], got {self.rho}")
        if self.mode == EXPLICIT_BITS and self.bits is None:
            raise StreamLengthMismatch("explicit_bits mode requires bits")


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
    """Run the four-set exploration; deterministic given (g, stream)."""
    n = g.n
    explicit = stream.mode == EXPLICIT_BITS
    if explicit:
        if len(stream.bits) != n:
            raise StreamLengthMismatch(
                f"stream length {len(stream.bits)} != n = {n}")
        bits = [bool(b) for b in stream.bits]  # indexed by query number
    else:
        bits = (uniforms(stream.seed, n) < stream.rho).tolist()  # indexed by vertex

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
        if not bits[start if explicit else r]:
            continue
        comp = [r]
        stack = [iter(nbrs[offsets[r]:offsets[r + 1]].tolist())]
        while stack:
            for w in stack[-1]:
                if in_t[w]:
                    in_t[w] = False
                    q += 1
                    if bits[q - 1 if explicit else w]:
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


class _UnionFind:
    """Array union-find with path halving; used only as the oracle."""

    def __init__(self, items):
        self.parent = {v: v for v in items}

    def find(self, v):
        p = self.parent
        while p[v] != v:
            p[v] = p[p[v]]
            v = p[v]
        return v

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra


def oracle_components(g: Graph, retained) -> List[List[int]]:
    """Connected components of G[retained] by union-find, ordered by minimum
    vertex, each sorted. Independent of the DFS code path."""
    ret = sorted({int(v) for v in retained})
    for v in ret:
        if not 0 <= v < g.n:
            raise VertexOutOfRange(f"vertex {v} not in 0..{g.n - 1}")
    in_r = np.zeros(g.n, dtype=bool)
    in_r[ret] = True
    uf = _UnionFind(ret)
    for v in ret:
        for w in g.neighbors_of(v):
            if w > v and in_r[w]:
                uf.union(v, int(w))
    groups = {}
    for v in ret:
        groups.setdefault(uf.find(v), []).append(v)
    return sorted(groups.values(), key=lambda c: c[0])


def largest_two(outcome: PercolationOutcome) -> Tuple[int, int]:
    """(L1, L2) component sizes; zeros fill in when fewer than two exist."""
    sizes = sorted((len(c) for c in outcome.components), reverse=True)
    l1 = sizes[0] if sizes else 0
    l2 = sizes[1] if len(sizes) > 1 else 0
    return l1, l2
