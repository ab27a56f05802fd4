"""Site percolation by DFS exploration with epoch accounting.

The explorer maintains four disjoint vertex sets: S (fully explored), T (not
yet visited), U (the stack), W (queried and rejected). One retention bit is
consumed per vertex, at the moment it leaves T:

  * U empty: the least-index vertex of T is queried; retained vertices open
    a new epoch, rejected ones go to W.
  * U nonempty: the T-neighbors of the top of the stack are scanned in
    ascending index, one bit per discovered neighbor; a top with no
    T-neighbor moves to S.
  * Termination when U and T are both empty; exactly n bits were consumed.

An epoch is the interval between two consecutive emptyings of U, recorded as
(start, end) 0-based query indices; each epoch reveals exactly one connected
component of the induced subgraph on retained vertices.

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
    rejected: List[int]
    components: List[List[int]]
    epochs: List[Tuple[int, int]]
    bits_consumed: int
    rho: float
    seed: int = 0


def dfs_percolate(g: Graph, stream: BernoulliStream) -> PercolationOutcome:
    """Run the four-set exploration; deterministic given (g, stream)."""
    n = g.n
    if stream.mode == EXPLICIT_BITS:
        if len(stream.bits) != n:
            raise StreamLengthMismatch(
                f"stream length {len(stream.bits)} != n = {n}")
        positional = [bool(b) for b in stream.bits]
        vertex_bits = None
    else:
        positional = None
        vertex_bits = (uniforms(stream.seed, n) < stream.rho).tolist()

    offsets = g.offsets
    nbrs = g.neighbors
    in_t = [True] * n
    retained: List[int] = []
    rejected: List[int] = []
    components: List[List[int]] = []
    epochs: List[Tuple[int, int]] = []
    stack_v: List[int] = []
    stack_adj: List[list] = []
    stack_cur: List[int] = []
    cur_comp: List[int] = []
    cur_start = 0
    q = 0  # queries so far = bits consumed
    t_cursor = 0

    while True:
        if not stack_v:
            while t_cursor < n and not in_t[t_cursor]:
                t_cursor += 1
            if t_cursor >= n:
                break
            v = t_cursor
            in_t[v] = False
            bit = positional[q] if positional is not None else vertex_bits[v]
            q += 1
            if bit:
                retained.append(v)
                cur_comp = [v]
                cur_start = q - 1
                stack_v.append(v)
                stack_adj.append(nbrs[offsets[v]:offsets[v + 1]].tolist())
                stack_cur.append(0)
            else:
                rejected.append(v)
        else:
            adj = stack_adj[-1]
            cur = stack_cur[-1]
            la = len(adj)
            # skip neighbors no longer in T; T only shrinks, so the skipped
            # prefix never becomes valid again and the cursor is safe to keep
            while cur < la and not in_t[adj[cur]]:
                cur += 1
            if cur < la:
                w = adj[cur]
                stack_cur[-1] = cur + 1
                in_t[w] = False
                bit = positional[q] if positional is not None else vertex_bits[w]
                q += 1
                if bit:
                    retained.append(w)
                    cur_comp.append(w)
                    stack_v.append(w)
                    stack_adj.append(nbrs[offsets[w]:offsets[w + 1]].tolist())
                    stack_cur.append(0)
                else:
                    rejected.append(w)
            else:
                stack_v.pop()
                stack_adj.pop()
                stack_cur.pop()
                if not stack_v:
                    cur_comp.sort()
                    components.append(cur_comp)
                    epochs.append((cur_start, q - 1))
                    cur_comp = []

    retained.sort()
    rejected.sort()
    return PercolationOutcome(
        retained=retained, rejected=rejected, components=components,
        epochs=epochs, bits_consumed=q, rho=stream.rho, seed=stream.seed)


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
