"""Deterministic bound checks on concrete graphs, with witnesses on failure.

Every checker returns a LemmaReport. For exhaustive modes `passed` is a proof
over the examined universe; for sampled modes it only means "not falsified".
Set sizes take ceilings wherever a real-valued size formula needs an integer,
and the rounding is recorded in the report parameters.
"""

import dataclasses
import itertools
import math
from typing import List, Optional, Sequence

import numpy as np

from .errors import InvalidParameter, NotCertified, require_bits, require_finite, require_int
from .graph import _DENSE_TILE_BYTES, Graph, adjacency_rows, degrees_into, vertex_set
from .rng import derived

EXHAUSTIVE_SET_CAP = 5_000_000
EXPANSION_SAMPLES = 10_000  # random sets of sampled-mode expansion_check

LEMMA_IDS = (
    "expansion",
    "variance",
    "xi_count",
    "outer_complement",
    "inclusion_exclusion",
    "binomial_tails",
)


@dataclasses.dataclass
class LemmaReport:
    lemma_id: str
    passed: bool
    checked_count: int
    witness: Optional[object]
    parameters: dict
    measured: object
    bound: object

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def neighborhood_size(g: Graph, H: Sequence[int]) -> int:
    """|{v not in H : v has a neighbor in H}|. H is read as a set of vertex
    ids."""
    return int(_neighborhood_sizes(g, vertex_set(g, H)[None, :])[0])


def _neighborhood_sizes(g: Graph, H: np.ndarray) -> np.ndarray:
    """|N(H[r]) \\ H[r]| for each row r of the t x m array H of valid ids:
    one adjacency_rows gather of all the rows marks each row's neighbors in
    a t x n bool matrix, the members' own columns are cleared, and the row
    sums are the sizes."""
    (t, m), n = H.shape, g.n
    marks = np.zeros(t * n, dtype=bool)  # flat indices mark faster than (row, column) pairs
    i, w = adjacency_rows(g, H.ravel())
    marks[i // m * n + w] = True  # no entries when m = 0
    marks[(H + np.arange(0, t * n, n)[:, None]).ravel()] = False
    return marks.reshape(t, n).sum(axis=1)


def inclusion_exclusion_lower_bound(g: Graph, H: Sequence[int]) -> int:
    """Signed lower bound sum(deg) - sum(pairwise co-degree) - |H|; always
    <= the exact external neighborhood size (Bonferroni). H is read as a
    set of vertex ids. The pairwise co-degrees sum to the wedges over H:
    sum over w of C(s_w, 2), s_w the number of members of H adjacent to w."""
    hs = vertex_set(g, H)
    if not len(hs):
        raise InvalidParameter("H must be nonempty")
    _, w = adjacency_rows(g, hs)
    s = np.bincount(w)
    return len(w) - int((s * (s - 1) // 2).sum()) - len(hs)


def inclusion_exclusion_check(g: Graph, H: Sequence[int]) -> LemmaReport:
    """The exact external neighborhood size of the vertex set H against its
    inclusion-exclusion lower bound; passed means measured >= bound."""
    hs = vertex_set(g, H).tolist()
    bound = inclusion_exclusion_lower_bound(g, hs)
    measured = neighborhood_size(g, hs)
    return LemmaReport("inclusion_exclusion", passed=measured >= bound, checked_count=1,
                       witness=None, parameters={"H": hs}, measured=measured, bound=bound)


def expansion_check(g: Graph, profile, m: int, alpha0: float,
                    c: float = 1e-3) -> LemmaReport:
    """No vertex set H with |H| = m has |N_G(H)| < (1-alpha0)(npm - np^2 m^2/2).

    Requires an integer 1 <= m <= n and c < m*p <= 1/3 for c in (0, 1/3).
    The scan is chosen from the instance: when C(n, m) <= EXHAUSTIVE_SET_CAP
    it runs over all C(n, m) sets and proves the verdict; beyond the cap it
    tries EXPANSION_SAMPLES random sets (stream seed 0) plus one greedy
    adversarial set and can only falsify. parameters["mode"] names the scan
    ("exhaustive" or "sampled"). Both constants are read at call time.
    """
    alpha0, c = require_finite(alpha0=alpha0, c=c)
    n, p = g.n, profile.p
    m = require_int("m", m, 1, n)
    if not 0.0 < c < 1.0 / 3.0:
        raise InvalidParameter(f"c must be in (0, 1/3), got {c}")
    if not c < m * p <= 1.0 / 3.0:
        raise InvalidParameter(f"need c < m*p <= 1/3, got m*p = {m * p}")
    bound = (1.0 - alpha0) * (n * p * m - n * p * p * m * m / 2.0)
    require_finite(bound=bound)
    total = math.comb(n, m)
    if total <= EXHAUSTIVE_SET_CAP:
        mode, checked = "exhaustive", total
        worst, witness_set = _expansion_scan_all(g, m)
    else:
        mode, checked = "sampled", EXPANSION_SAMPLES + 1
        worst, witness_set = _expansion_scan_sampled(g, m, EXPANSION_SAMPLES)
    params = {"p": p, "a_n": profile.a_n, "b_n": profile.b_n, "m": m,
              "alpha0": alpha0, "c": c, "mode": mode}
    passed = worst >= bound
    witness = None if passed else {"H": list(witness_set), "neighborhood_size": worst,
                                   "bound": bound}
    return LemmaReport("expansion", bool(passed), checked, witness,
                       params, measured=worst, bound=bound)


def _expansion_scan_all(g: Graph, m: int):
    """min |N(H)| over all |H| = m and its first lexicographic witness.

    For m = 1 that is the minimum degree. Otherwise every H is an
    (m-1)-set S of 0..n-2 plus one later vertex c > max S. Let U be the OR of
    the members' rows of the 0/1 adjacency matrix A, so N(H) is U | A[c]
    without the members of H. Then

      |N(H)| = |U| + deg c - (U A^T)[S, c] - sum_{h in S} [h in U | A[c]] - U[c]

    (c is in neither S nor A[c]). Setting the members' own columns of U to 1
    gives W with (W A^T)[S, c] = (U A^T)[S, c] - sum_{h in S} U[h]
    + sum_{h in S} [h in U | A[c]], so one float32 product per block of S
    yields every c at once: |N(H)| = |U \\ S| + deg c - (W A^T)[S, c] - U[c].
    Each count is at most n, so float32 is exact.

    The sets S are taken in lexicographic order, in blocks whose U and
    product together fit in _DENSE_TILE_BYTES. A block's product spans only
    the columns from its smallest max S + 1 on, and every c <= max S is
    masked. Its rows run in lexicographic order of S and its columns ascend
    in c, so its first flattened argmin is its lexicographically first
    minimiser (S, c). A block replaces the running minimum only when strictly
    smaller, so the witness is the first lexicographic H overall."""
    n = g.n
    if m == 1:
        deg = g.degrees()
        v = int(np.argmin(deg))
        return int(deg[v]), (v,)
    k = max(1, _DENSE_TILE_BYTES // (8 * n))  # rows per block: U and its product
    A = np.zeros((n, n), dtype=np.float32)
    for first in range(0, n, k):  # row blocks bound the gather's index arrays
        i, w = adjacency_rows(g, np.arange(first, min(n, first + k)))
        A[first + i, w] = 1
    deg = g.degrees().astype(np.float32)
    union, product = np.empty((2, k * n), dtype=np.float32)
    worst, witness = n + 1, ()
    sets = itertools.combinations(range(n - 1), m - 1)
    while True:
        S = np.fromiter(itertools.chain.from_iterable(itertools.islice(sets, k)),
                        dtype=np.int64).reshape(-1, m - 1)
        t = len(S)
        if not t:
            return worst, witness
        lo = int(S[:, -1].min()) + 1  # the smallest c of the block
        U = union[:t * n].reshape(t, n)
        # the ids are valid, and mode="raise" would buffer the output
        np.take(A, S[:, 0], axis=0, out=U, mode="clip")
        for j in range(1, m - 1):
            rows = np.take(A, S[:, j], axis=0, out=product[:t * n].reshape(t, n), mode="clip")
            np.maximum(U, rows, out=U)
        at = np.arange(t)[:, None], S
        outside = U.sum(axis=1) - U[at].sum(axis=1)  # |U minus S|
        U[at] = 1  # U is W from here on
        size = product[:t * (n - lo)].reshape(t, n - lo)
        np.matmul(U, A[lo:].T, out=size)
        np.subtract(deg[lo:], size, out=size)
        size -= U[:, lo:]
        size += outside[:, None]
        size[np.arange(lo, n) <= S[:, -1:]] = np.inf
        b, c = divmod(int(np.argmin(size)), n - lo)
        if size[b, c] < worst:
            worst = int(size[b, c])
            witness = (*S[b].tolist(), lo + c)


def _expansion_scan_sampled(g: Graph, m: int, samples: int):
    """min |N(H)| over `samples` random m-sets (set k drawn from stream
    (0, k)) and one greedy adversarial set, with the first set attaining it.

    The random sets are evaluated in blocks by _neighborhood_sizes, whose
    t x n mark matrix holds at most _DENSE_TILE_BYTES. A block's first argmin
    replaces the running minimum only when strictly smaller, so the witness
    is the first minimising set."""
    n = g.n
    worst, witness = n + 1, ()
    per_block = max(1, _DENSE_TILE_BYTES // n)
    for first in range(0, samples, per_block):
        H = np.array([derived(0, k).choice(n, size=m, replace=False)
                      for k in range(first, min(samples, first + per_block))])
        sizes = _neighborhood_sizes(g, H)
        b = int(np.argmin(sizes))
        if sizes[b] < worst:
            worst, witness = int(sizes[b]), tuple(H[b].tolist())
    # adversarial: grow greedily from the minimum-degree vertex, always adding
    # the vertex that keeps the running neighborhood smallest, taken from that
    # neighborhood unless H already covers it (a component smaller than m)
    H = [int(np.argmin(g.degrees()))]
    mask = np.zeros(g.n, dtype=bool)
    outside = np.ones(g.n, dtype=bool)
    while True:
        mask[g.neighbors_of(H[-1])] = True
        outside[H[-1]] = False
        if len(H) == m:
            break
        near = mask & outside
        candidates = np.flatnonzero(near if near.any() else outside)
        gains = [int((~mask[g.neighbors_of(v)]).sum()) for v in candidates.tolist()]
        H.append(int(candidates[np.argmin(gains)]))
    size = neighborhood_size(g, H)
    if size < worst:
        worst = size
        witness = tuple(sorted(H))
    return worst, witness


def variance_bound_check(g: Graph, U: Sequence[int], profile) -> LemmaReport:
    """Exact population variance of d(X, U) for X uniform on [n], against

      p(1-p)|U| + |U|(a_n - b_n)/n + (b_n/n)|U|^2 + 2(a_n p/n)|U| - a_n^2 |U|^2 / n^2

    and additionally the coarse bound 2p|U| + (3 b_n / n)|U|^2 when |U| >= n/2.
    """
    profile.require("a1", "a2", "a3")
    n, p, a, b = g.n, profile.p, profile.a_n, profile.b_n
    us = vertex_set(g, U)
    mask = np.zeros(n, dtype=bool)
    mask[us] = True
    d = degrees_into(g, mask)
    sd = int(d.sum())
    sd2 = int((d * d).sum())
    var = sd2 / n - (sd / n) ** 2 if n else 0.0
    u = len(us)
    rhs = (p * (1 - p) * u + u * (a - b) / n + (b / n) * u * u
           + 2 * (a * p / n) * u - (a * a * u * u) / (n * n)) if n else 0.0
    require_finite(bound=rhs)
    remark_rhs = None
    remark_passed = None
    if n and 2 * u >= n:
        remark_rhs = 2 * p * u + (3 * b / n) * u * u
        require_finite(remark_bound=remark_rhs)
        remark_passed = bool(var <= remark_rhs)
    passed = var <= rhs
    params = {"p": p, "a_n": a, "b_n": b, "u_size": u,
              "codegree_mode": profile.codegree_mode,
              "remark_bound": remark_rhs, "remark_passed": remark_passed}
    return LemmaReport("variance", bool(passed), 1,
                       None if passed else {"u_size": u, "variance": var},
                       params, measured=var, bound=rhs)


def xi_count_check(g: Graph, U: Sequence[int], profile, alpha: float) -> LemmaReport:
    """Exact count of vertices with d(v, U) >= (1+alpha) p |U| against
    4/(alpha p)^2 * (4p + 12 b_n). Needs |U| >= n/2 and a_n <= alpha p n / 2."""
    [alpha] = require_finite(alpha=alpha)
    profile.require("a1", "a2", "a3")
    n, p, a, b = g.n, profile.p, profile.a_n, profile.b_n
    us = vertex_set(g, U)
    if 2 * len(us) < n:
        raise InvalidParameter(f"|U| = {len(us)} < n/2 = {n / 2}")
    if a > alpha * p * n / 2:
        raise NotCertified(f"a_n = {a} > alpha*p*n/2 = {alpha * p * n / 2}")
    threshold = (1 + alpha) * p * len(us)
    try:
        bound = 4.0 / (alpha * p) ** 2 * (4 * p + 12 * b)
    except (OverflowError, ZeroDivisionError):
        raise InvalidParameter(f"(alpha p)^2 overflows or underflows at alpha = {alpha}") from None
    require_finite(threshold=threshold, bound=bound)
    mask = np.zeros(n, dtype=bool)
    mask[us] = True
    d = degrees_into(g, mask)
    xi = int((d >= threshold).sum())
    passed = xi <= bound
    witness = None
    if not passed:
        witness = {"vertices": np.flatnonzero(d >= threshold)[:10].tolist()}
    params = {"p": p, "a_n": a, "b_n": b, "alpha": alpha, "u_size": len(us),
              "threshold": threshold, "codegree_mode": profile.codegree_mode}
    return LemmaReport("xi_count", bool(passed), 1, witness, params,
                       measured=xi, bound=bound)


def grow_connected_set(g: Graph, root: int, size: int,
                       within: Optional[Sequence[int]] = None) -> List[int]:
    """First `size` vertices of a BFS from the vertex id root (optionally
    confined to `within`, read as a vertex-id set); raises InvalidParameter
    for a size not an integer >= 1, a bad id or too few reachable vertices."""
    size = require_int("size", size, 1)
    root = g._vertex(root)
    allowed = None if within is None else vertex_set(g, within)
    if allowed is not None and root not in allowed:
        raise InvalidParameter(f"root {root} not in the confining set")
    order = _bfs(g, root, allowed, size)
    if len(order) < size:
        raise InvalidParameter(f"only {len(order)} vertices reachable, need {size}")
    return sorted(order)


def _is_connected_induced(g: Graph, C: List[int]) -> bool:
    """Whether the distinct valid ids C induce a connected subgraph."""
    return bool(C) and len(_bfs(g, C[0], C, len(C))) == len(C)


def _bfs(g: Graph, root: int, allowed: Optional[Sequence[int]], limit: int) -> List[int]:
    """The first `limit` >= 1 vertices (fewer when the search runs out) in BFS
    order from root, entering only the valid ids in `allowed` (any vertex
    when None). Each row is filtered with a mask of the vertices still open,
    so the Python loop runs only over the vertices it appends."""
    if allowed is None:
        open_ = np.ones(g.n, dtype=bool)
    else:
        open_ = np.zeros(g.n, dtype=bool)
        open_[allowed] = True
    open_[root] = False
    order = [root]
    for v in order:  # the loop also visits the vertices appended below
        if len(order) >= limit:
            break
        row = g.neighbors_of(v)
        row = row[open_[row]]
        open_[row] = False
        order.extend(row.tolist())
    return order[:limit]


def ceil_eps_over_p(epsilon: float, p: float) -> int:
    """ceil(eps/p): the L1 a giant must reach, and the size of the connected
    set C of the outer-complement bound. Needs a finite eps > 0 and a finite
    quotient."""
    [epsilon] = require_finite(epsilon=epsilon)
    if epsilon <= 0:
        raise InvalidParameter(f"epsilon must be > 0, got {epsilon}")
    [quotient] = require_finite(eps_over_p=epsilon / p)
    return math.ceil(quotient)


def outer_complement_check(g: Graph, C: Sequence[int], profile,
                           epsilon: float) -> LemmaReport:
    """Exact count of vertices neither in C nor adjacent to C, against
    n(1 - eps + eps^2/2 + eps*l_n) with l_n = a_n/n + (eps/2) b_n/(n p^2).

    C must induce a connected subgraph of size ceil(eps/p) (+/- 1 rounding
    tolerance). The looser variant with eps^2 instead of eps^2/2 is evaluated
    alongside and echoed in the parameters.
    """
    [epsilon] = require_finite(epsilon=epsilon)
    target = ceil_eps_over_p(epsilon, profile.p)
    profile.require("a1", "a2")
    n, p, a, b = g.n, profile.p, profile.a_n, profile.b_n
    cs = vertex_set(g, C).tolist()
    if not cs:
        raise InvalidParameter("C must be nonempty")
    if not _is_connected_induced(g, cs):
        raise InvalidParameter("C does not induce a connected subgraph")
    if abs(len(cs) - target) > 1:
        raise InvalidParameter(f"|C| = {len(cs)}, need ceil(eps/p) = {target} (+/- 1)")
    nbhd = neighborhood_size(g, cs)
    outer = n - nbhd - len(cs)
    l_n = a / n + (epsilon / 2) * b / (n * p * p)
    bound_proof = n * (1 - epsilon + epsilon ** 2 / 2 + epsilon * l_n)
    bound_statement = n * (1 - epsilon + epsilon ** 2 + epsilon * l_n)
    require_finite(l_n=l_n, bound=bound_proof, bound_statement=bound_statement)
    passed = outer <= bound_proof
    params = {"p": p, "a_n": a, "b_n": b, "epsilon": epsilon, "l_n": l_n,
              "c_size": len(cs), "c_size_target": target,
              "neighborhood_size": nbhd,
              "bound_statement": bound_statement,
              "statement_passed": bool(outer <= bound_statement),
              "codegree_mode": profile.codegree_mode}
    return LemmaReport("outer_complement", bool(passed), 1,
                       None if passed else {"outer_size": outer, "C": cs[:10]},
                       params, measured=outer, bound=bound_proof)


def binomial_stream_check(n: int, rho: float, epsilon: float, trials: int,
                          seed: int, bits: Optional[Sequence[int]] = None) -> LemmaReport:
    """Monte Carlo check of the three prefix-sum tail predicates for i.i.d.
    Bernoulli(rho) bits Y_1..Y_n, under the parameterization rho = (1+eps)/(np)
    (so p is implied by rho):

      (1) sum_{i <= ceil(eps^3 n)} Y_i <= 2 eps^3 / p
      (2) sum_{i <= ceil(eps n)} Y_i <= 2 eps / p
      (3) for every t in [ceil(eps^3 n), ceil(eps n)]:
          sum_{i <= t} Y_i >= (1 + 3 eps/4) t / (np)

    Only the ceil(eps*n) prefix of each stream is drawn. Item (3) is checked
    at every integer t via one cumulative-sum pass. passed means every item's
    empirical failure frequency is <= max_failure_rate = 0.01. `bits` injects
    one explicit 0/1 stream (trials is then ignored). Needs integers n >= 1,
    seed >= 0 and trials >= 1 (>= 0 with bits), and 0 < rho <= 1 and
    0 < eps <= 1: beyond 1 the prefix of length ceil(eps n) runs past Y_n.
    """
    max_failure_rate = 0.01
    n = require_int("n", n, 1)
    trials = require_int("trials", trials, 1 if bits is None else 0)
    seed = require_int("seed", seed)
    rho, eps = require_finite(rho=rho, epsilon=epsilon)
    if not (0 < rho <= 1 and 0 < eps <= 1):
        raise InvalidParameter(f"need 0 < rho <= 1 and 0 < eps <= 1, got {rho} and {eps}")
    if eps ** 3 * n < 1:
        raise InvalidParameter(f"need eps^3 * n >= 1, got {eps ** 3 * n:.3g}")
    p = (1 + eps) / (n * rho)
    t1 = math.ceil(eps ** 3 * n)
    t2 = math.ceil(eps * n)
    bound1 = 2 * eps ** 3 / p
    bound2 = 2 * eps / p
    ts = np.arange(t1, t2 + 1, dtype=np.int64)
    floor3 = (1 + 3 * eps / 4) * ts / (n * p)

    if bits is not None:
        bits = require_bits("bits", bits)
        if len(bits) < t2:
            raise InvalidParameter(f"need at least {t2} bits, got {len(bits)}")
        streams = [bits[:t2]]
    else:
        streams = (derived(seed, k).random(t2) < rho for k in range(trials))
    # one row of the three item verdicts per stream
    bad = np.array([(cs[t1 - 1] > bound1, cs[t2 - 1] > bound2, np.any(cs[t1 - 1:t2] < floor3))
                    for cs in map(np.cumsum, streams)], dtype=bool)
    total = len(bad)
    freqs = (bad.sum(axis=0) / total).tolist()
    passed = all(f <= max_failure_rate for f in freqs)
    k = int(np.argmax(bad.any(axis=1)))  # the first stream failing an item
    witness = None if passed else {"trial": k,
                                   "items_failed": (np.flatnonzero(bad[k]) + 1).tolist()}
    return LemmaReport(
        lemma_id="binomial_tails",
        passed=passed,
        checked_count=total,
        witness=witness,
        parameters={"n": n, "rho": rho, "epsilon": float(eps), "p_implied": p,
                    "t_low": t1, "t_high": t2, "trials": total, "seed": seed,
                    "max_failure_rate": max_failure_rate},
        measured={"failure_frequencies": freqs},
        bound={"item1": bound1, "item2": bound2,
               "item3_floor_at_t_low": float(floor3[0])},
    )
