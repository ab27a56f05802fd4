"""Ground-graph construction and queries.

Graphs are immutable, undirected, simple, with vertices labelled 0..n-1.
Adjacency is stored in compressed sparse row form: `offsets[v]:offsets[v+1]`
slices `neighbors` to give the sorted neighbor list of v.

Generation is deterministic given the spec: all randomness comes from
PCG64(SeedSequence(seed)) (see rng module). The gnp generator samples
unordered pairs in lexicographic order via geometric skipping: with
q = log(1-p), each gap between successive edges is floor(log(1-u)/q) for a
fresh uniform u; uniforms are drawn from the root stream of the seed and the
consumed prefix is identical whether drawn one at a time or in batches, so an
independent scalar re-implementation reproduces the edge set exactly.
"""

import math
from dataclasses import dataclass, replace
from typing import Optional, Tuple

import numpy as np

from .errors import (InvalidParameter, NonSimple, ParseError, PercolabError, ResourceLimit,
                     ascii_int, require_finite, require_int, require_vertex_id)
from .rng import derived

# Ceiling on a build's array entries, n plus the expected edge count (the
# CSR holds n + 1 offsets and two entries per edge); largest n whose
# co-degree scan runs over all pairs (beyond it the scan is sampled). Both
# are read at call time, so a caller may rebind them on this module.
DEFAULT_EDGE_CAP = 50_000_000
EXACT_CODEGREE_CAP = 20_000

_GNP_BATCH = 1 << 16
# neighbors are int32, so n and every id stay below 2**31 - 1
_MAX_N = int(np.iinfo(np.int32).max)
# near_regular_perturbed toggles one pair at each of ceil(fraction * n) vertices
_PERTURB_FRACTION = 0.01
# Co-degree kernels (see max_co_degree), measured on a 2-vCPU Xeon VM with
# numpy 2.4.6 and OpenBLAS 0.3.31, in float32 multiply-adds. One wedge key
# cost 5-11 ns on gnp n=1000..4000 at p >= 0.04, and 14-190 ns on sparser or
# smaller hosts. A dense product of a k-row tile and a packed k-row operand
# over `cols` columns costs k * k * cols multiply-adds, plus
# _TILE_CELL_MADDS for each of the k * cols cells of the left tile built and
# streamed: 12 ps a unit on gnp 2000/0.1 (17 products, 50 ms) and 4000/0.2
# (271, 556 ms), 8 ps on the rows of gnp 30000/0.03 (342 thin products, 311
# ms), 11-15 ps on one-tile hosts of n=500 (2.0-2.7 ms) and 22 ps on Paley
# 1009 (2 products, 17 ms). Timed with both kernels forced (best of 3) on
# gnp n=500, 1000, 2000, 4000 at p=0.005, 0.01, 0.02, 0.05, 0.1, 0.2, Paley
# 1009 and the top-1% rows of gnp 30000/0.03 and 50000/2e-4, these two
# picked the faster kernel on every host but gnp 2000/0.02 (wedges 43 ms,
# tiles 32 ms) and 500/0.05 (4.7 and 2.4 ms), whose few wedges cost 27-31
# ns a key. Wedges against tiles elsewhere: 64 against 311 ms on the rows
# of gnp 30000/0.03, 656 against 17 ms on Paley 1009, 244 against 50 ms on
# gnp 2000/0.1. No key cost picks the faster kernel everywhere: gnp
# 2000/0.02 needs one above 1805, gnp 4000/0.03 (wedges 239 ms, tiles 339
# ms) one below 1181.
_WEDGE_KEY_MADDS = 1000
_TILE_CELL_MADDS = 200
# Bytes of one float32 tile of the dense kernel. The scan holds two row
# tiles, their product and one digit of it, or one row per tile when a row
# is larger; a row of the columns it counts is smaller than the incidence
# arrays the scan already holds. On certify_exact, with one tile a product,
# 4 MB tiles ran the batch in 0.56 s at a peak RSS of 102.7 MB, 2 MB in
# 0.61 s at 99.8 MB and 1 MB in 0.67 s at 99.5 MB.
_DENSE_TILE_BYTES = 1 << 21
# float32 holds every integer up to 2**24 exactly, so the dense kernel runs
# only while no count it sums can pass that: every row of the scan has fewer
# neighbors. A loaded edge list may hold a hub of more. The kernel packs
# 24 // bits row tiles into each product, bits the bit length of the rows'
# largest degree, so that every packed sum stays below 2**24 as well: 3
# tiles on gnp 2000/0.1 (largest degree 249, 8 bits), 2 on Paley 1009 (504).
_FLOAT32_EXACT = 1 << 24
# Keys made and counted at once by the wedge count. On gnp n=20000,
# p=0.002 (16M wedges, every chunk sorted) 2**17 took 0.41-0.58 s and 42
# MB over the graph; 2**21 took 0.79 s and 136 MB, one chunk 0.89 s and
# 791 MB. save_edge_list gathers the lines of row ranges of this many
# neighbor entries at once, so its peak follows this size and not the file's.
# _from_upper_rows makes the row ids of its keys and lays out its rows in
# ranges of this many entries, so its scratch beside the CSR does too, and
# adjacency_rows offsets its gather index in ranges of this many entries.
_CODEGREE_CHUNK_KEYS = 1 << 17
# Bytes read at a time by load_edge_list; a block's numpy scan peaks at
# about 20x its bytes. In a fresh process that starts at 30 MB RSS,
# loading gnp 50000/2e-4 (a 2.9 MB file) peaked at 41 MB in blocks of
# 256 KiB, 38 MB in 64 KiB, 58 MB in 1 MiB and 83 MB in 4 MiB (one block),
# as the whole-file scan did (84 MB), all in 0.08-0.15 s.
_LOAD_BLOCK_BYTES = 1 << 18


@dataclass(frozen=True)
class Graph:
    """Immutable undirected simple graph in CSR adjacency form."""

    n: int
    offsets: np.ndarray  # int64, length n+1
    neighbors: np.ndarray  # int32, length 2*edge_count, sorted per row
    edge_count: int

    def degree(self, v) -> int:
        return len(self.neighbors_of(v))

    def neighbors_of(self, v) -> np.ndarray:
        """The sorted neighbors of v (see `_vertex`)."""
        v = self._vertex(v)
        return self.neighbors[self.offsets[v]:self.offsets[v + 1]]

    def degrees(self) -> np.ndarray:
        return np.diff(self.offsets)

    def has_edge(self, u, v) -> bool:
        """Whether {u, v} is an edge; both ids pass `_vertex`."""
        row, v = self.neighbors_of(u), self._vertex(v)
        i = np.searchsorted(row, v)
        return i < len(row) and row[i] == v

    def _vertex(self, v) -> int:
        """v as an id read by `errors.require_vertex_id` in 0..n-1;
        InvalidParameter for any other v."""
        v = require_vertex_id(v)
        if not 0 <= v < self.n:
            raise InvalidParameter(f"vertex {v} not in 0..{self.n - 1}")
        return v


def vertex_set(g: Graph, vertices) -> np.ndarray:
    """The distinct ids of `vertices`, each read by `errors.require_vertex_id`,
    ascending, as int64. Raises InvalidParameter for an id that gate refuses
    or, by `Graph._vertex` on the least and the largest, one outside 0..n-1."""
    ids = sorted({require_vertex_id(v) for v in vertices})
    for v in ids[:1] + ids[-1:]:
        g._vertex(v)
    return np.asarray(ids, dtype=np.int64)


def adjacency_rows(g: Graph, rows) -> Tuple[np.ndarray, np.ndarray]:
    """Every neighbor w[k] of rows[i[k]], row by row, each row ascending.
    `rows` holds valid ids, in any order and possibly repeated. Entry k of
    the gather index is k plus its row's start less the entries before that
    row; the k are added one _chunks-sized range at a time, and the index is
    dropped before `i` is made, so the gather holds at most one int64 and
    one int32 array of its length."""
    rows = np.asarray(rows, dtype=np.int64)
    start = g.offsets[rows]
    deg = g.offsets[rows + 1] - start
    at = np.repeat(start - np.cumsum(deg) + deg, deg)
    for a in range(0, len(at), _CODEGREE_CHUNK_KEYS):
        b = min(a + _CODEGREE_CHUNK_KEYS, len(at))
        at[a:b] += np.arange(a, b)
    w = g.neighbors[at]
    del at
    return np.repeat(np.arange(len(rows)), deg), w


def co_degree(g: Graph, u, v) -> int:
    """Number of common neighbors |N_u ∩ N_v|; symmetric in (u, v)."""
    u, v = require_vertex_id(u), require_vertex_id(v)
    if u == v:
        raise InvalidParameter(f"co_degree needs u != v, got {u}")
    return int(np.intersect1d(g.neighbors_of(u), g.neighbors_of(v), assume_unique=True).size)


@dataclass(frozen=True)
class GeneratorSpec:
    """Parameters for one graph construction; fields unused by `kind` stay None."""

    kind: str
    n: Optional[int] = None
    p: Optional[float] = None
    q: Optional[int] = None
    seed: Optional[int] = None


_KIND_FIELDS = {
    "gnp": {"n", "p", "seed"},
    "complete": {"n"},
    "paley": {"q"},
    "near_regular_perturbed": {"n", "p", "seed"},
}


def _validate_spec(spec: GeneratorSpec) -> GeneratorSpec:
    """`spec` with its fields as plain numbers, or InvalidParameter."""
    if spec.kind not in _KIND_FIELDS:
        raise InvalidParameter(f"unknown kind {spec.kind!r}")
    needed = _KIND_FIELDS[spec.kind]
    given = {f for f in ("n", "p", "q", "seed") if getattr(spec, f) is not None}
    if given != needed:
        raise InvalidParameter(f"kind {spec.kind!r} needs exactly {sorted(needed)}, got {sorted(given)}")
    fields = {f: require_int(f, getattr(spec, f), 0, _MAX_N if f == "n" else None)
              for f in ("n", "seed", "q") if f in needed}
    if "p" in needed:
        [p] = require_finite(p=spec.p)
        if not 0.0 < p < 1.0:
            raise InvalidParameter(f"p must be in (0,1), got {p}")
        fields["p"] = p
    q = fields.get("q")
    # q is paley's vertex count; bounding it first keeps trial division short
    if q is not None and not (5 <= q <= _MAX_N and q % 4 == 1 and _is_prime(q)):
        raise InvalidParameter(f"q must be a prime = 1 mod 4 in [5, {_MAX_N}], got {q}")
    return replace(spec, **fields)


def _is_prime(q: int) -> bool:
    if q < 2:
        return False
    if q % 2 == 0:
        return q == 2
    f = 3
    while f * f <= q:
        if q % f == 0:
            return False
        f += 2
    return True


def generate(spec: GeneratorSpec) -> Graph:
    """Build the graph described by `spec`; pure function of its parameters.
    Refused, before any allocation, when n plus the expected edge count
    exceeds DEFAULT_EDGE_CAP."""
    spec = _validate_spec(spec)
    if spec.kind == "gnp":
        _check_cap(spec.n, spec.n * (spec.n - 1) / 2 * spec.p)
        return _from_upper_rows(spec.n, *_gnp_pairs(spec.n, spec.p, spec.seed))
    if spec.kind == "complete":
        _check_cap(spec.n, spec.n * (spec.n - 1) / 2)
        return _from_upper_rows(spec.n, *_circulant_pairs(spec.n, np.arange(1, spec.n)))
    if spec.kind == "paley":
        # x ~ y iff x - y is a nonzero square mod q; q = 1 mod 4 makes -1 a
        # square, so adjacency is symmetric
        _check_cap(spec.q, spec.q * (spec.q - 1) / 4)
        squares = np.flatnonzero(np.bincount(np.arange(1, spec.q, dtype=np.int64) ** 2 % spec.q))
        return _from_upper_rows(spec.q, *_circulant_pairs(spec.q, squares))
    _check_cap(spec.n, spec.n * (spec.n - 1) / 2 * spec.p)
    return _near_regular_perturbed(spec.n, spec.p, spec.seed)


def _check_cap(n: int, expected_edges: float):
    if n + expected_edges > DEFAULT_EDGE_CAP:
        raise ResourceLimit(f"n = {n} plus {expected_edges:.3g} expected edges "
                            f"exceeds cap {DEFAULT_EDGE_CAP}")


def _from_upper_rows(n: int, upper: np.ndarray, ev: np.ndarray) -> Graph:
    """CSR of the graph on n vertices whose row u holds the upper neighbors
    ev[a:a + upper[u]], a = upper[:u].sum(): the pairs (u, w), u < w.

    Precondition: the pairs are unique, each row's part of `ev` ascends, and
    the rows come in order (every generator and the loader produce them so);
    `upper` has length n and `ev` is any integer array: the generators give
    _end_type(n), the loader int32. Row v holds its lower neighbors {u < v}
    followed by its upper neighbors {w > v}, each part ascending. The upper
    parts, concatenated in row order, are `ev` as given; the lower parts are
    the rows u sorted by (ev, u), from one sort of the m = len(ev) keys
    ev << s | u, s the bits of n - 1. With L(v) and U(v) the lower and upper
    entries of the rows before v, row v starts at L(v) + U(v), and L(v) is
    the number of keys below v << s. Row n's bound is m, not a search:
    n << s is 2**32 at n = 65536, which wraps in uint32.

    The build works inside the `neighbors` it returns (2m int32). Up to
    n = 65536 the keys fit in uint32 and are made and sorted in its back
    half, neighbors[m:]; beyond, in a separate int64 array. The row ids u
    are ORed in one _chunks range of U at a time. After the search the keys
    are masked in place to u, and the rows are laid out front to back, one
    _chunks range [a, b) of L + U at a time: the range's keys are copied
    out, then written to its lower slots, and its part of `ev` to its upper
    slots. Its output ends at L(b) + U(b) <= m + L(b), where the next
    range's keys start, so no write passes a key not yet read. Beside
    `upper` and `ev` (two bytes a pair from a generator up to n = 65536)
    the build holds `neighbors`, two n + 1 int64 arrays (`offsets`, first
    U, and L) and one range's row ids, keys and mask.
    """
    m = len(ev)
    s = max(1, (n - 1).bit_length())
    neighbors = np.empty(2 * m, dtype=np.int32)
    key = neighbors[m:].view(np.uint32) if n << s <= 1 << 32 else np.empty(m, dtype=np.int64)
    key[:] = ev
    key <<= s
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(upper, out=offsets[1:])
    for a, b in _chunks(offsets):
        key[offsets[a]:offsets[b]] |= np.repeat(np.arange(a, b, dtype=key.dtype), upper[a:b])
    key.sort()
    lower_at = np.empty(n + 1, dtype=np.int64)
    lower_at[:n] = np.searchsorted(key, np.arange(n, dtype=key.dtype) << s)
    lower_at[n] = m
    offsets += lower_at
    key &= (1 << s) - 1
    for a, b in _chunks(offsets):
        out = neighbors[offsets[a]:offsets[b]]
        is_lower = np.repeat(np.tile([True, False], b - a),
                             np.column_stack((np.diff(lower_at[a:b + 1]), upper[a:b])).ravel())
        # astype copies the range's keys before any write, since `out` may cover them
        out[is_lower] = key[lower_at[a]:lower_at[b]].astype(np.int32)
        np.logical_not(is_lower, out=is_lower)
        out[is_lower] = ev[offsets[a] - lower_at[a]:offsets[b] - lower_at[b]]
    offsets.setflags(write=False)
    neighbors.setflags(write=False)
    return Graph(n=n, offsets=offsets, neighbors=neighbors, edge_count=m)


def _end_type(n: int) -> np.dtype:
    """The least unsigned dtype that holds max(n - 1, 0), the largest upper
    end of a pair on n vertices: uint8 up to n = 256, uint16 up to 65536
    (where _from_upper_rows keys are uint32) and uint32 beyond."""
    return np.min_scalar_type(max(n - 1, 0))


def _gnp_pairs(n: int, p: float, seed: int):
    """The upper rows (upper, ev) of G(n, p): row u holds upper[u] pairs
    (u, w), u < w, whose w are the next upper[u] entries of the
    _end_type(n) array `ev`, ascending; the pairs are in lexicographic
    order. Batches of _GNP_BATCH gaps are drawn in place; each batch's pairs
    are sorted, so its per-row counts are found from the few row starts that
    fall inside it."""
    total = n * (n - 1) // 2
    rng = derived(seed)
    log1mp = np.log1p(-p)
    # cum[u] = lexicographic index of pair (u, u+1); pair k of row u is
    # (u, k - shift[u])
    rows = np.arange(n, dtype=np.int64)
    cum = rows * n - rows * (rows + 1) // 2
    shift = cum - rows - 1
    gaps = np.empty(_GNP_BATCH)
    ks = np.empty(_GNP_BATCH, dtype=np.int64)
    upper = np.zeros(n, dtype=np.int64)
    # the first gap alone may overshoot every pair
    out_v = [np.zeros(0, dtype=_end_type(n))]
    pos = -1
    while True:
        rng.random(out=gaps)
        np.negative(gaps, out=gaps)
        np.log1p(gaps, out=gaps)
        gaps /= log1mp
        # a gap past every pair ends the draw; capping it at 2 * total keeps
        # it exact in int64 (total < 2**61) when p is tiny
        np.minimum(gaps, 2 * total, out=gaps)
        np.floor(gaps, out=ks, casting="unsafe")
        ks += 1
        np.cumsum(ks, out=ks)
        ks += pos
        # ks ascends up to its first index past the last pair
        beyond = int(np.argmax(ks >= total))
        done = ks[beyond] >= total
        batch = ks[:beyond] if done else ks
        pos = int(ks[-1])  # read before the batch turns into ev in place
        if len(batch):
            u0, u1 = np.searchsorted(cum, batch[[0, -1]], "right") - 1
            counts = np.diff(np.searchsorted(batch, cum[u0 + 1:u1 + 1]), prepend=0,
                             append=len(batch))
            batch -= np.repeat(shift[u0:u1 + 1], counts)
            upper[u0:u1 + 1] += counts
            out_v.append(batch.astype(out_v[0].dtype))
        if done:
            break
    return upper, np.concatenate(out_v)


def _circulant_pairs(n: int, steps: np.ndarray):
    """The upper rows (upper, ev), as _gnp_pairs gives them, of the
    circulant graph on Z_n whose connection set is the ascending int64
    array `steps` of distinct values in 1..n-1, closed under s -> n - s:
    row a of the upper triangle is a + s for each step s < n - a."""
    rows = np.arange(n, dtype=np.int64)
    counts = np.searchsorted(steps, n - rows)
    ev = np.repeat(rows, counts)
    first = np.cumsum(counts) - counts
    ev += steps[np.arange(len(ev)) - np.repeat(first, counts)]
    return counts, ev.astype(_end_type(n))


def _near_regular_perturbed(n: int, p: float, seed: int) -> Graph:
    upper, ev = _gnp_pairs(n, p, seed)
    if n < 2:
        return _from_upper_rows(n, upper, ev)  # no pair to toggle
    rng = derived(seed, 1)
    k = max(1, int(np.ceil(_PERTURB_FRACTION * n)))
    x = rng.choice(n, size=min(k, n), replace=False)
    y = rng.integers(0, n - 1, size=len(x))
    y += y >= x  # uniform over [n] \ {x}
    # toggle each chosen pair; a pair drawn twice keeps its original state
    toggled, times = np.unique(np.minimum(x, y) * n + np.maximum(x, y), return_counts=True)
    codes = np.repeat(np.arange(n, dtype=np.int64) * n, upper) + ev
    codes = np.setxor1d(codes, toggled[times % 2 == 1], assume_unique=True)
    ev = (codes % n).astype(_end_type(n))
    return _from_upper_rows(n, np.bincount(codes // n, minlength=n), ev)


def degrees_into(g: Graph, in_set: np.ndarray) -> np.ndarray:
    """d(v, U) for every vertex v, where in_set is a boolean mask of U."""
    counts = np.zeros(g.n, dtype=np.int64)
    nonempty = g.offsets[:-1] < g.offsets[1:]
    if nonempty.any():
        hits = in_set[g.neighbors].astype(np.int64)
        counts[nonempty] = np.add.reduceat(hits, g.offsets[:-1][nonempty])
    return counts


@dataclass(frozen=True)
class CoDegreeResult:
    value: int
    pair: Tuple[int, int]
    mode: str  # "exact" | "sampled"


def _codegree_is_exact(g: Graph) -> bool:
    return g.n <= EXACT_CODEGREE_CAP


def require_exact_codegree(g: Graph):
    """Refuse a graph whose co-degree scan would be sampled."""
    if not _codegree_is_exact(g):
        raise ResourceLimit(f"exact co-degree needs n <= {EXACT_CODEGREE_CAP}, got {g.n}")


def max_co_degree(g: Graph, sample_pairs: int = 50_000) -> CoDegreeResult:
    """Maximum co-degree over unordered pairs of a row set, with the first
    pair (in (u, v) order) attaining it.

    Exact mode (n <= EXACT_CODEGREE_CAP) scans all pairs of vertices.
    Beyond the cap, mode "sampled" scans all pairs among the top-degree 1%
    of vertices and r distinct uniform vertices, where r is the least
    integer with C(r, 2) >= `sample_pairs` (at most n): a lower bound on
    the true maximum that reads at least `sample_pairs` pairs of uniform
    vertices, and every pair across the two sets.

    An all-pairs scan over t rows uses one of two kernels, both exact. The
    exact scan reads the CSR's neighbors in place and takes s_w, the number
    of rows adjacent to w, from the degrees; a sampled scan gathers its
    rows' neighbors and counts them. A wedge count makes one key per pair of
    rows sharing a neighbor w, sum over w of C(s_w, 2) keys. It counts equal
    keys in one bin per row pair when the t*t pairs are no more than the
    rows' incidences (the sampled rows of a dense host), the rows grouped by
    w with one sort of narrow keys, else in chunks of whole rows: a chunk of
    r rows with at least r*t keys counts them in r*t bins, a sparser one
    sorts them.
    The dense kernel multiplies float32 0/1 tiles of the rows with BLAS
    over the `cols` vertices with s_w >= 2. Every count is at most the
    rows' largest degree, a number of `bits` bits, so the right operand of
    each product packs f = 24 // bits tiles as base-2**bits digits, and one
    product gives the counts of f tiles: each packed sum stays below 2**24,
    where float32 sums integers exactly, and an int32 shift and mask read
    the digits back. Its work is the products' multiply-adds, about
    C(t, 2) * cols / f, plus building and streaming the tiles. The wedge
    count scans when its keys times the cost of one key (_WEDGE_KEY_MADDS
    multiply-adds) are at most the dense work: sparse hosts count wedges,
    dense hosts multiply tiles. A row with 2**24 or more neighbors, whose
    counts float32 could not hold, sends the scan to the wedge count.
    Deterministic for a given graph; the sampling stream is keyed by
    (n, edge_count). Raises InvalidParameter unless `sample_pairs` is an int >= 0.
    """
    if g.n < 2:
        raise InvalidParameter("max_co_degree needs n >= 2")
    sample_pairs = require_int("sample_pairs", sample_pairs)
    exact = _codegree_is_exact(g)
    rows = np.arange(g.n) if exact else _sampled_rows(g, sample_pairs)
    value, pair = _max_codegree_among(g, rows)
    return CoDegreeResult(value=value, pair=pair, mode="exact" if exact else "sampled")


def _max_codegree_among(g: Graph, rows: np.ndarray):
    """Largest co-degree over the pairs of the ascending vertex array `rows`
    (at least two), with the first pair attaining it; the kernel with the
    smaller estimated work does the scan. The incidences are the rows'
    neighbors w, row by row, and s[w] counts the rows adjacent to w. When
    the rows are every vertex, w is the CSR's `neighbors` itself and s the
    degrees, since every neighbor of w is a row; a row subset gathers its
    neighbors with adjacency_rows and counts them with a bincount. Each
    incidence's row, an int64 array, is made only for the wedge count: the
    dense kernel reads it from the degrees."""
    t = len(rows)
    if t == g.n:
        i, w = None, g.neighbors
        s = deg = g.degrees()
    else:
        i, w = adjacency_rows(g, rows)
        s = np.bincount(w, minlength=g.n)
        deg = g.degrees()[rows]
    wedges = int((s * (s - 1) // 2).sum())
    shared = s > 1
    cols = int(np.count_nonzero(shared))
    top = int(deg.max())
    k = _tile_rows(t, cols)
    tiles = -(-t // k)
    f = _packing(top)[1]
    # the packed operand of tiles b .. b+f-1 meets every left tile up to its
    # last; a product costs k * k * cols multiply-adds and its left tile
    products = sum(min(tiles, b + f) for b in range(0, tiles, f))
    dense = products * k * cols * (k + _TILE_CELL_MADDS)
    if top < _FLOAT32_EXACT and wedges * _WEDGE_KEY_MADDS > dense:
        del i
        return _max_codegree_dense(rows, deg, w, shared, k)
    if i is None:
        i = np.repeat(np.arange(t), deg)
    return _max_codegree_wedges(rows, i, w, s)


def _tile_rows(t: int, cols: int) -> int:
    """Rows per tile of the dense kernel: a tile of `cols` float32 columns
    and the product of two tiles each fit in _DENSE_TILE_BYTES, or a tile
    is one row."""
    cells = _DENSE_TILE_BYTES // 4
    return max(1, min(t, math.isqrt(cells), cells // max(1, cols)))


def _packing(top: int) -> Tuple[int, int]:
    """The dense kernel's digit width, the bit length of `top` (the rows'
    largest degree, below _FLOAT32_EXACT), and the row tiles f it packs into
    one product: as many digits as 2**(bits*f) <= _FLOAT32_EXACT allows, and
    at least one."""
    bits = max(1, top).bit_length()
    return bits, max(1, (_FLOAT32_EXACT.bit_length() - 1) // bits)


def _max_codegree_dense(rows: np.ndarray, deg: np.ndarray, w: np.ndarray, shared: np.ndarray,
                        k: int):
    """The scan of _max_codegree_among by float32 products of 0/1 row
    tiles. w lists the neighbors of the rows, row by row, as
    adjacency_rows(g, rows) does, and deg[r] is the degree of row r; the
    columns are the vertices w with shared[w], those adjacent to two or more
    rows, the only ones a co-degree counts. Tile s holds rows s*k .. s*k+k-1.

    Every count is at most top = deg.max(), the largest degree, so it fits
    a digit of bits = top.bit_length() bits. The right operand packs f =
    _packing(top)[1] consecutive tiles s0 .. s0+f-1, tile s0+d weighted by
    2**(bits*d), into one float32 tile. A left tile times it sums, for each
    pair of rows, f counts times their weights: an integer of at most
    2**(bits*f) - 1 < _FLOAT32_EXACT, reached through partial sums of
    non-negative integers that are smaller still, so the float32 product is
    exact (with f = 1 every sum is at most `top`). Cast to int32, the count
    against tile s0+d is the digit that a shift of bits*d and a mask read.
    Each packed operand is built once and multiplied by every left tile up
    to its last tile, about C(T+1, 2) / f products for T tiles; the pairs
    of rows b <= a are masked. Per row a the largest count and its first
    row b are kept, the right tiles taken in ascending order, so the first
    largest count of the first row attaining it is the first pair. Beside
    the neighbor and cell arrays the scan holds two float32 tile buffers, a
    product and one digit of it."""
    t = len(rows)
    top = int(deg.max())
    col = np.cumsum(shared, dtype=np.int32)
    col -= 1
    cols = int(col[-1]) + 1
    size = k * cols
    # the cell of each incidence in its tile, its row's offset in the tile
    # plus its column, made in int32 in place. A vertex that is no column
    # gets column `size`, and clipping sends it to the spare cell past every
    # tile: its sum is at most size + (k - 1) * cols, size itself for tiles
    # of one row and else below 2 * size, with size <= _DENSE_TILE_BYTES / 4.
    col[~shared] = size
    cell = np.repeat(np.arange(t, dtype=np.int32) % k * cols, deg)
    cell += col[w]
    np.minimum(cell, size, out=cell)
    # the first incidence of each tile, and the end of the last
    start = np.zeros(t + 1, dtype=np.int64)
    np.cumsum(deg, out=start[1:])
    bounds = start[np.minimum(np.arange(0, t + k, k), t)]
    tiles = len(bounds) - 1
    bits, f = _packing(top)
    left, right = np.zeros((2, size + 1), dtype=np.float32)

    def cells(s):
        """The cells of tile s, distinct bar the spare one, as a gather
        index: numpy converts an int32 index on every use."""
        return cell[bounds[s]:bounds[s + 1]].astype(np.intp)

    best = np.full(t, -1, dtype=np.int32)  # largest count in row a
    arg = np.zeros(t, dtype=np.int64)  # first row b attaining it
    packed = right[:size].reshape(k, cols)
    for s0 in range(0, tiles, f):
        s1 = min(s0 + f, tiles)
        # set, not add, the first tile: a fresh zero page read before its
        # first write faults twice
        right[cells(s0)] = 1
        for b in range(s0 + 1, s1):
            left[cells(b)] = 1 << bits * (b - s0)
            right += left
            left.fill(0)
        for a in range(s1):
            lo, hi = a * k, min(a * k + k, t)
            if a == s0 == s1 - 1:
                # a tile times itself: no left tile to build, and numpy
                # multiplies x @ x.T of one buffer as a symmetric product
                product = packed[:hi - lo] @ packed[:hi - lo].T
            else:
                left[cells(a)] = 1
                product = left[:size].reshape(k, cols)[:hi - lo] @ packed.T
                left.fill(0)
            # every sum is an integer below 2**24: cast it to int32 in place,
            # which numpy does for a 1-d array without a copy
            flat = product.reshape(-1)
            np.copyto(flat.view(np.int32), flat, casting="unsafe")
            digits = product.view(np.int32)
            for b in range(s0, s1):
                if b > s0:
                    digits >>= bits
                if b < a:
                    continue
                # the shifts leave the last digit alone; mask the others, as
                # int16: with two or more digits a product, bits <= 12
                counts = digits if b == s1 - 1 else np.bitwise_and(
                    digits, (1 << bits) - 1, dtype=np.int16, casting="unsafe")
                counts = counts[:, :min(k, t - b * k)]
                if b == a:
                    counts[np.tri(hi - lo, dtype=bool)] = -1
                j = counts.argmax(axis=1)
                found = counts[np.arange(hi - lo), j]
                better = found > best[lo:hi]
                best[lo:hi][better] = found[better]
                arg[lo:hi][better] = b * k + j[better]
            # free the product before the next tile's index is made
            del product, flat, digits, counts
        right.fill(0)
    r = int(best.argmax())
    return int(best[r]), (int(rows[r]), int(rows[arg[r]]))


def _max_codegree_wedges(rows: np.ndarray, i: np.ndarray, w: np.ndarray, s: np.ndarray):
    """The scan of _max_codegree_among by counting wedges. (i, w) are the
    incidences of the rows, as adjacency_rows(g, rows) gives them, and s[w]
    the number of rows adjacent to w. Each pair a < b of rows adjacent to
    one w gives a key; the number of equal keys is the co-degree of the
    pair. When the t*t pairs of rows are no more than the incidences, the
    rows grouped by w (_rows_by_neighbor, one sort) give every key a*t + b,
    counted in one bin per row pair (_max_codegree_pair_bins). Otherwise
    keys are made and counted in chunks of whole rows [a0, a1), in row
    order, as (a - a0)*t + b, below (a1 - a0)*t. A chunk with at least that
    many keys counts them in one bin per key value (_first_largest_bin); a
    sparser one sorts them (_first_largest_run). Either way the least key
    among the most frequent wins, and a later chunk must beat the count, so
    the first largest count is the first attaining pair.

    The chunks need each incidence's slot in the order by w, so they take
    it from an argsort of the int64 keys w*t + i. by_w and slot are
    incidence indices, row_at a row below t and owns a count below t, so
    each is int32: DEFAULT_EDGE_CAP keeps the incidences below 2**31. The
    running wedge count `owned` is int64, since the wedges, sum of
    C(s_w, 2), may pass 2**31."""
    t = len(rows)
    if t * t <= len(w):
        return _max_codegree_pair_bins(rows, _rows_by_neighbor(i, w, t, len(s)), s)
    # the keys w*t + i are distinct and ascend with i inside a w group, so
    # sorting them groups the incidences by w exactly as a stable sort by w
    by_w = np.argsort(np.multiply(w, t, dtype=np.int64) + i).astype(np.int32)
    row_at = i.astype(np.int32)[by_w]
    slot = np.empty(len(w), dtype=np.int32)
    slot[by_w] = np.arange(len(w), dtype=np.int32)
    del by_w
    # incidence k owns one key for each later slot of its w group
    owns = np.cumsum(s, dtype=np.int32)[w]
    owns -= slot
    owns -= 1
    owned = np.zeros(len(w) + 1, dtype=np.int64)
    np.cumsum(owns, dtype=np.int64, out=owned[1:])
    row_start = np.searchsorted(i, np.arange(t + 1))
    best, pair = 0, (int(rows[0]), int(rows[1]))
    for a0, a1 in _chunks(owned[row_start]):
        r0, r1 = row_start[a0], row_start[a1]
        if owned[r1] == owned[r0]:
            continue
        count = owns[r0:r1]
        before = np.cumsum(count, dtype=np.int64) - count
        partner = np.repeat(slot[r0:r1] + 1 - before, count)
        partner += np.arange(len(partner))
        keys = np.repeat((i[r0:r1] - a0) * t, count)
        keys += row_at[partner]
        span = (a1 - a0) * t
        key, runs = _first_largest_bin(keys, span) if span <= len(keys) else _first_largest_run(keys)
        if runs > best:
            best = runs
            a, b = divmod(key, t)
            pair = (int(rows[a0 + a]), int(rows[b]))
    return best, pair


def _rows_by_neighbor(i: np.ndarray, w: np.ndarray, t: int, n: int) -> np.ndarray:
    """The rows i of the incidences (i, w) of t rows on n vertices, grouped
    by w ascending and each group's rows ascending, as int32. The keys
    w*t + i are distinct, below n*t, and ascend with i inside a w group, so
    one in-place sort of them, held in _end_type(n * t) (uint32 on the
    sampled rows of gnp 30000/0.03), gives the order of a stable sort by w,
    and key % t is the row."""
    keys = np.multiply(w, t, dtype=_end_type(n * t), casting="unsafe")
    np.add(keys, i, out=keys, dtype=keys.dtype, casting="unsafe")
    keys.sort()
    return np.remainder(keys, t, out=np.empty(len(keys), dtype=np.int32), casting="unsafe")


def _max_codegree_pair_bins(rows: np.ndarray, row_at: np.ndarray, s: np.ndarray):
    """The wedge count of _max_codegree_wedges in one int64 bin per pair of
    the t rows, for t*t at most the incidences: the bins take at most 8
    bytes an incidence, and every key a*t + b fits the int32 of row_at.
    row_at lists the rows adjacent to each w, w ascending and each group's
    rows ascending, so the groups have sizes s[w] > 0 in order of w. The
    groups of one size k >= 2 are taken as one (groups x k) block; each
    position pair p < q of np.triu_indices(k, 1) gives the key a*t + b of
    the group's rows a = row_at[p] < b = row_at[q]. np.add.at adds at most
    _CODEGREE_CHUNK_KEYS keys at a time, or one group's. The least key of
    the largest bin is the first attaining pair."""
    t = len(rows)
    size = s[s > 0]
    start = np.cumsum(size) - size
    bins = np.zeros(t * t, dtype=np.int64)
    for k in np.unique(size[size > 1]).tolist():
        p, q = np.triu_indices(k, 1)
        first = start[size == k, None]
        step = max(1, _CODEGREE_CHUNK_KEYS // len(p))
        for g in range(0, len(first), step):
            block = row_at[first[g:g + step] + np.arange(k)]
            keys = block[:, p] * t
            keys += block[:, q]
            np.add.at(bins, keys, 1)
    key = int(bins.argmax())
    if bins[key] == 0:
        return 0, (int(rows[0]), int(rows[1]))
    a, b = divmod(key, t)
    return int(bins[key]), (int(rows[a]), int(rows[b]))


def _first_largest_bin(keys: np.ndarray, span: int):
    """The least of the most frequent `keys` (all in 0..span-1) and its
    count, from one bin per value: a sparse accumulator (Gilbert, Moler &
    Schreiber 1992). The caller asks for no more bins than keys, so the
    chunk's memory bound holds."""
    bins = np.bincount(keys, minlength=span)
    k = int(bins.argmax())
    return k, int(bins[k])


def _first_largest_run(keys: np.ndarray):
    """_first_largest_bin by sorting, for keys fewer than their span."""
    keys, runs = np.unique(keys, return_counts=True)
    k = int(runs.argmax())
    return int(keys[k]), int(runs[k])


def _sampled_rows(g: Graph, sample_pairs: int) -> np.ndarray:
    """The rows of the sampled scan, ascending: the top-degree 1% of
    vertices (ties broken by index), where high-degree vertices dominate
    the maximum, and r distinct uniform vertices, r the least integer with
    C(r, 2) >= sample_pairs (at most n), chosen without replacement from
    the stream keyed by (n, edge_count). The top m = max(2, n // 100) are
    the vertices above the m-th largest degree, which one np.partition
    finds, and the lowest-index vertices at it, as many as make m."""
    deg = g.degrees()
    m = max(2, g.n // 100)
    least = np.partition(deg, g.n - m)[g.n - m]
    above = np.flatnonzero(deg > least)
    top = np.concatenate([above, np.flatnonzero(deg == least)[:m - len(above)]])
    r = math.isqrt(2 * sample_pairs)
    while math.comb(r, 2) < sample_pairs:
        r += 1
    uniform = derived(0xC0DE6, g.n, g.edge_count).choice(g.n, size=min(r, g.n), replace=False)
    return np.union1d(top, uniform)


def _chunks(before: np.ndarray):
    """Consecutive ranges [a, b) that cover items 0..len(before)-2, where
    item k makes before[k+1] - before[k] keys: each range makes at most
    _CODEGREE_CHUNK_KEYS keys, or is one item."""
    a = 0
    while a < len(before) - 1:
        b = max(a + 1, int(np.searchsorted(before, before[a] + _CODEGREE_CHUNK_KEYS, "right")) - 1)
        yield a, b
        a = b


_HEADER_PREFIX = "# n="
_MAX_DIGITS = 18  # longest id token parsed without int64 overflow


def load_edge_list(path) -> Graph:
    """Parse the canonical edge-list format (see save_edge_list).

    Blank lines and lines whose first non-blank character is '#' are
    skipped, whatever bytes follow it, except a single '# n=<N>' header,
    which must come before the first edge. A comment is a header when 'n='
    follows its '#' after ASCII whitespace alone; N is then at most
    _MAX_DIGITS ASCII digits, like an id, with ASCII whitespace around it.
    Every other line holds two distinct vertex ids in ASCII decimal digits;
    each unordered pair may appear once. Without a header, n is the largest
    id plus one. The first bad line raises ParseError, or NonSimple for a
    self-loop or a repeated edge, with its 1-based number. Refused with
    ResourceLimit once the edge lines pass DEFAULT_EDGE_CAP, or when n plus
    the edge count does.

    The file is read in blocks of whole lines (_line_blocks), each scanned
    with numpy: tokens are the runs of non-space bytes. The scan marks each
    edge line of the block that breaks a rule, whatever the lines before it
    hold, and the first header that does not set n. At the block's first
    marked line the load records the error that _line_error names and reads
    no further. Each pair on a line before it is kept as one int64 key
    lo << 31 | hi, with its line within its block. Repeated pairs are found
    once, over every kept key; a repeat comes before the recorded line, so
    it is the first bad line of the file.
    """
    declared_n, first_edge, error = None, None, None
    keys, pair_lines = [np.zeros(0, dtype=np.int64)], []
    pair_starts, line_starts = [0], [0]  # per block: its first pair and line
    with open(path, "rb") as fh:
        for data in _line_blocks(fh):
            line0 = line_starts[-1]
            raw = np.frombuffer(data, dtype=np.uint8)
            line_ends = np.flatnonzero(raw == ord("\n"))
            n_lines = len(line_ends) + 1

            def line_bytes(i):
                start = int(line_ends[i - 1]) + 1 if i else 0
                return data[start:int(line_ends[i]) if i < len(line_ends) else len(data)]

            # the bytes that bytes.split() treats as whitespace, '\t' to '\r'
            # and ' ', found by comparisons; a token is a run of the others
            space = np.ones(len(raw) + 2, dtype=bool)
            np.less(raw - np.uint8(ord("\t")), 5, out=space[1:-1])
            space[1:-1] |= raw == ord(" ")
            bounds = np.flatnonzero(space[1:] != space[:-1])
            starts, ends = bounds[0::2], bounds[1::2]
            tok_line = np.searchsorted(line_ends, starts)
            leading = np.ones(len(starts), dtype=bool)
            leading[1:] = tok_line[1:] != tok_line[:-1]
            comment_lines = tok_line[leading & (raw[starts] == ord("#"))]
            is_comment = np.zeros(n_lines, dtype=bool)
            is_comment[comment_lines] = True
            edge = ~is_comment[tok_line]
            starts, ends, tok_line = starts[edge], ends[edge], tok_line[edge]
            if first_edge is None and len(tok_line):
                first_edge = line0 + int(tok_line[0]) + 1

            # Marked: the first header (a comment '# n=...') that does not set
            # n, as only the first header sets n and only before the first
            # edge; then edge lines that are not two tokens of ASCII digits
            # short enough to parse, and those whose pair is a self-loop or
            # has an id of _MAX_N or more, or outside n. A header that sets n
            # comes before the first edge, so declared_n is final for every pair.
            counts = np.bincount(tok_line, minlength=n_lines)
            marked = (counts != 0) & (counts != 2)
            for i in comment_lines.tolist():
                body = line_bytes(i).strip()[1:].strip()
                if not body.startswith(b"n="):
                    continue
                value = body[2:].strip()
                early = declared_n is None and (first_edge is None or line0 + i + 1 < first_edge)
                value = ascii_int(value) if early and len(value) <= _MAX_DIGITS else None
                if value is None or value > _MAX_N:
                    marked[i] = True
                    break
                declared_n = value
            # raw - '0' wraps in uint8, so only a digit is below 10; a byte
            # neither digit nor space marks its line unless it is a comment
            digit = raw - np.uint8(ord("0"))
            odd = digit >= 10
            odd &= ~space[1:-1]
            odd_line = np.searchsorted(line_ends, np.flatnonzero(odd))
            marked[odd_line[~is_comment[odd_line]]] = True
            marked[tok_line[ends - starts > _MAX_DIGITS]] = True
            well_formed = ~marked[tok_line]
            starts, ends, tok_line = starts[well_formed], ends[well_formed], tok_line[well_formed]

            # Ids by Horner's rule over right-aligned digit columns: column j
            # of a token is its digit j places before its last, or 0 once j
            # reaches its width.
            width = ends - starts
            ids = np.zeros(len(starts), dtype=np.int64)
            for j in range(int(width.max()) - 1 if len(width) else -1, -1, -1):
                column = digit.take(ends - 1 - j, mode="clip")
                column[width <= j] = 0
                ids *= 10
                ids += column
            u, v, line_of = ids[0::2], ids[1::2], tok_line[0::2]
            lo, hi = np.minimum(u, v), np.maximum(u, v)
            limit = _MAX_N if declared_n is None else declared_n
            marked[line_of[(lo == hi) | (hi >= limit)]] = True

            first_bad = min([*np.flatnonzero(marked)[:1].tolist(), n_lines])
            k = int(np.searchsorted(line_of, first_bad))
            key = lo[:k] << 31
            key |= hi[:k]
            keys.append(key)
            pair_lines.append(line_of[:k].astype(np.int32))
            pair_starts.append(pair_starts[-1] + k)
            line_starts.append(line0 + len(line_ends))
            if first_bad < n_lines:
                error = _line_error(line0 + first_bad + 1, line_bytes(first_bad), declared_n,
                                    first_edge)
                break
            if pair_starts[-1] > DEFAULT_EDGE_CAP:
                raise ResourceLimit(f"{pair_starts[-1]} edges by line {line_starts[-1]} "
                                    f"exceed cap {DEFAULT_EDGE_CAP}")

    # Repeats: two equal neighbours once the keys are sorted. Only then does
    # a stable sort find the first repeat in file order.
    key = np.concatenate(keys)
    del keys
    if not (key[1:] > key[:-1]).all():
        key, in_file = np.sort(key), key
        repeat = key[1:] == key[:-1]
        if repeat.any():
            k = int(np.argsort(in_file, kind="stable")[1:][repeat].min())
            block = int(np.searchsorted(pair_starts, k, "right")) - 1
            line_no = line_starts[block] + int(pair_lines[block][k - pair_starts[block]]) + 1
            lo, hi = divmod(int(in_file[k]), 1 << 31)
            raise NonSimple(line_no, f"duplicate edge {(lo, hi)}")
        del in_file, repeat
    if error is not None:
        raise error
    del pair_lines
    # _MAX_N is 2**31 - 1, the mask of a key's hi part
    hi = np.empty(len(key), dtype=np.int32)
    np.bitwise_and(key, _MAX_N, out=hi, casting="unsafe")
    key >>= 31
    n = declared_n if declared_n is not None else int(hi.max()) + 1 if len(hi) else 0
    _check_cap(n, len(hi))
    upper = np.bincount(key, minlength=n)
    del key
    return _from_upper_rows(n, upper, hi)


def _line_blocks(fh):
    """The bytes of the binary file `fh` in blocks of whole lines, with
    every '\r\n' and '\r' turned into '\n'. Each block ends after the
    last line end of the bytes read so far, _LOAD_BLOCK_BYTES at a time: a
    '\n', or a '\r' that is not the last byte read, since only that '\r'
    can be the first half of a '\r\n'. The rest carries over to the next
    block, so a line longer than a read spans several reads."""
    buf = bytearray()
    while True:
        read = fh.read(_LOAD_BLOCK_BYTES)
        # the bytes carried over hold no line end but their last '\r'
        searched = max(0, len(buf) - 1)
        buf += read
        cut = len(buf)
        if read:
            cut = 1 + max(buf.rfind(b"\n", searched), buf.rfind(b"\r", searched, len(buf) - 1))
        if cut:
            block = bytes(buf[:cut])
            yield block.replace(b"\r\n", b"\n").replace(b"\r", b"\n") if b"\r" in block else block
            del buf[:cut]
        if not read:
            return


def _line_error(line_no: int, raw: bytes, declared_n, first_edge) -> PercolabError:
    """The error for the marked line `raw`, number `line_no` of the file;
    `first_edge` is the number of the first edge line (None before one).
    A marked comment is a header that does not set n: repeated once n is
    declared, else late if it follows the first edge line, else bad (its
    value is not an integer in 0.._MAX_N). A marked edge line is named by
    the first rule it breaks of two ids of at most _MAX_DIGITS ASCII digits,
    each below _MAX_N, two distinct ids, and both below the declared n."""
    parts = raw.split()
    line = raw.decode("utf-8", errors="replace").strip()
    if parts[0].startswith(b"#"):
        if declared_n is not None:
            return ParseError(line_no, f"repeated header {line!r}")
        if first_edge is not None and first_edge < line_no:
            return ParseError(line_no, f"header {line!r} after the first edge")
        return ParseError(line_no, f"bad header {line!r}")
    if len(parts) != 2:
        return ParseError(line_no, f"expected two vertex ids, got {line!r}")
    if not all(part.isdigit() for part in parts):
        if any(part[:1] == b"-" and part[1:].isdigit() for part in parts):
            return ParseError(line_no, f"negative vertex id in {line!r}")
        return ParseError(line_no, f"non-integer vertex id in {line!r}")
    if max(map(len, parts)) > _MAX_DIGITS:
        return ParseError(line_no, f"vertex id too large in {line!r}")
    u, v = map(int, parts)
    if max(u, v) >= _MAX_N:
        return ParseError(line_no, f"vertex id {max(u, v)} above {_MAX_N - 1}")
    if u == v:
        return NonSimple(line_no, f"self-loop {u}")
    return ParseError(line_no, f"vertex {max(u, v)} outside declared n={declared_n}")


def save_edge_list(g: Graph, path):
    """Write canonical form: '# n=<N>' header, then 'u v' lines with u < v,
    sorted by (u, v). save -> load -> save is byte-identical.

    Every id's line entry (its digits and '\n') is made once (_id_entries).
    The lines of each row range of _chunks are then one gather from those
    entries, u's then w's for each edge, through an int32 index when the
    entries allow; the '\n' after u is set to ' ' in place."""
    entries, at = _id_entries(g.n)
    index_type = np.int32 if len(entries) <= _MAX_N else np.int64
    with open(path, "wb") as fh:
        fh.write(f"{_HEADER_PREFIX}{g.n}\n".encode())
        for a, b in _chunks(g.offsets):
            w = g.neighbors[g.offsets[a]:g.offsets[b]]
            u = np.repeat(np.arange(a, b, dtype=np.int32), np.diff(g.offsets[a:b + 1]))
            upper = u < w
            ends = np.column_stack((u[upper], w[upper])).ravel()
            first = at[ends]
            size = at[ends + 1] - first
            done = np.cumsum(size)  # bytes written up to each entry's end
            index = np.repeat((first - done + size).astype(index_type), size)
            index += np.arange(len(index), dtype=index_type)
            out = entries[index]
            out[done[0::2] - 1] = ord(" ")
            fh.write(out)


def _id_entries(n: int):
    """Every id 0..n-1 in ASCII decimal digits followed by '\n', as one
    uint8 array, and the n + 1 offsets of the entries in it (int64)."""
    ids = np.arange(n, dtype=np.int64)
    # the ids from lows[k] = 10**k on (from 0 for k = 0) have a digit k
    lows = [0] + [10 ** k for k in range(1, len(str(n - 1)))] if n else []
    size = np.ones(n, dtype=np.int64)
    for low in lows:
        size[low:] += 1
    at = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(size, out=at[1:])
    entries = np.full(int(at[-1]), ord("\n"), dtype=np.uint8)
    for k, low in enumerate(lows):
        entries[at[low + 1:] - 2 - k] = ids[low:] // 10 ** k % 10 + ord("0")
    return entries, at
