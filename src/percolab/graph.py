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

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .errors import (
    GraphTooSmall,
    InvalidSpec,
    NonSimple,
    ParseError,
    ResourceLimit,
    SameVertex,
    SampledModeUnavailable,
    VertexOutOfRange,
)
from .rng import derived, generator

# Expected-edge ceiling for generators; n**2 bits ceiling for exact co-degree.
# Both are read at call time, so a caller may rebind them on this module.
DEFAULT_EDGE_CAP = 50_000_000
EXACT_CODEGREE_CAP = 20_000

_GNP_BATCH = 1 << 16
# neighbors are int32, so n and every id stay below 2**31 - 1
_MAX_N = int(np.iinfo(np.int32).max)
# near_regular_perturbed toggles one pair at each of ceil(fraction * n) vertices
_PERTURB_FRACTION = 0.01


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
        if not 0 <= v < self.n:
            raise VertexOutOfRange(f"vertex {v} not in 0..{self.n - 1}")
        return self.neighbors[self.offsets[v]:self.offsets[v + 1]]

    def degrees(self) -> np.ndarray:
        return np.diff(self.offsets)

    def has_edge(self, u, v) -> bool:
        row = self.neighbors_of(u)
        i = np.searchsorted(row, v)
        return i < len(row) and row[i] == v


def vertex_set(g: Graph, vertices) -> np.ndarray:
    """The distinct ids int(v) of `vertices`, ascending, as int64. Raises
    VertexOutOfRange for an id outside 0..n-1."""
    ids = sorted({int(v) for v in vertices})
    for v in ids[:1] + ids[-1:]:
        if not 0 <= v < g.n:
            raise VertexOutOfRange(f"vertex {v} not in 0..{g.n - 1}")
    return np.array(ids, dtype=np.int64)


def adjacency_rows(g: Graph, rows) -> Tuple[np.ndarray, np.ndarray]:
    """Every neighbor w[k] of rows[i[k]], row by row, each row ascending.
    `rows` holds valid ids, in any order and possibly repeated."""
    rows = np.asarray(rows, dtype=np.int64)
    deg = g.offsets[rows + 1] - g.offsets[rows]
    i = np.repeat(np.arange(len(rows)), deg)
    return i, g.neighbors[np.arange(len(i)) + (g.offsets[rows] - np.cumsum(deg) + deg)[i]]


def co_degree(g: Graph, u, v) -> int:
    """Number of common neighbors |N_u ∩ N_v|; symmetric in (u, v)."""
    if u == v:
        raise SameVertex(f"co_degree needs u != v, got {u}")
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


def _validate_spec(spec: GeneratorSpec):
    if spec.kind not in _KIND_FIELDS:
        raise InvalidSpec(f"unknown kind {spec.kind!r}")
    needed = _KIND_FIELDS[spec.kind]
    given = {f for f in ("n", "p", "q", "seed") if getattr(spec, f) is not None}
    if given != needed:
        raise InvalidSpec(f"kind {spec.kind!r} needs exactly {sorted(needed)}, got {sorted(given)}")
    if "n" in needed and not 0 <= spec.n <= _MAX_N:
        raise InvalidSpec(f"n must be in [0, {_MAX_N}], got {spec.n}")
    if "seed" in needed and spec.seed < 0:
        raise InvalidSpec(f"seed must be >= 0, got {spec.seed}")
    if "p" in needed and not 0.0 < spec.p < 1.0:
        raise InvalidSpec(f"p must be in (0,1), got {spec.p}")
    # q is paley's vertex count; bounding it first keeps trial division short
    if "q" in needed and not (5 <= spec.q <= _MAX_N and spec.q % 4 == 1 and _is_prime(spec.q)):
        raise InvalidSpec(f"q must be a prime = 1 mod 4 in [5, {_MAX_N}], got {spec.q}")


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
    Refused when the expected edge count exceeds DEFAULT_EDGE_CAP."""
    _validate_spec(spec)
    if spec.kind == "gnp":
        _check_cap(spec.n * (spec.n - 1) / 2 * spec.p)
        eu, ev = _gnp_pairs(spec.n, spec.p, spec.seed)
        return _from_edge_arrays(spec.n, eu, ev)
    if spec.kind == "complete":
        _check_cap(spec.n * (spec.n - 1) / 2)
        eu, ev = _complete_pairs(spec.n)
        return _from_edge_arrays(spec.n, eu, ev)
    if spec.kind == "paley":
        _check_cap(spec.q * (spec.q - 1) / 4)
        eu, ev = _paley_pairs(spec.q)
        return _from_edge_arrays(spec.q, eu, ev)
    _check_cap(spec.n * (spec.n - 1) / 2 * spec.p)
    return _near_regular_perturbed(spec.n, spec.p, spec.seed)


def _check_cap(expected_edges: float):
    if expected_edges > DEFAULT_EDGE_CAP:
        raise ResourceLimit(f"expected {expected_edges:.3g} edges exceeds cap {DEFAULT_EDGE_CAP}")


def _from_edge_arrays(n: int, eu: np.ndarray, ev: np.ndarray) -> Graph:
    """CSR of the graph on n vertices whose edges are the pairs (eu[i], ev[i]).

    Precondition: the pairs are unique, eu < ev, and sorted lexicographically
    (every generator and the loader produce them so). Row v holds its lower
    neighbors {u < v} followed by its upper neighbors {w > v}, each part
    ascending. The upper parts, concatenated in row order, are `ev` as given:
    pair i lands at slot i plus the number of lower neighbors of rows
    0..eu[i]. The lower parts fill the other slots with `eu` re-sorted by
    (ev, eu).
    """
    m = len(eu)
    lower = np.bincount(ev, minlength=n)
    offsets = np.zeros(n + 1, dtype=np.int64)
    offsets[1:] = np.bincount(eu, minlength=n)
    offsets[1:] += lower
    np.cumsum(offsets, out=offsets)
    upper_at = np.cumsum(lower, out=lower)[eu]
    upper_at += np.arange(m)
    neighbors = np.empty(2 * m, dtype=np.int32)
    neighbors[upper_at] = ev
    is_lower = np.ones(2 * m, dtype=bool)
    is_lower[upper_at] = False
    del upper_at
    key = ev * n + eu
    key.sort()
    key %= n
    neighbors[is_lower] = key
    offsets.setflags(write=False)
    neighbors.setflags(write=False)
    return Graph(n=n, offsets=offsets, neighbors=neighbors, edge_count=len(eu))


def _gnp_pairs(n: int, p: float, seed: int):
    total = n * (n - 1) // 2
    rng = generator(seed)
    log1mp = np.log1p(-p)
    # cum[u] = lexicographic index of pair (u, u+1)
    rows = np.arange(n, dtype=np.int64)
    cum = rows * n - rows * (rows + 1) // 2
    # the first gap alone may overshoot every pair
    out_u, out_v = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.int64)]
    pos = -1
    while True:
        u = rng.random(_GNP_BATCH)
        gaps = np.floor(np.log1p(-u) / log1mp).astype(np.int64)
        ks = pos + np.cumsum(gaps + 1)
        done = ks[-1] >= total
        if done:
            ks = ks[ks < total]
        if len(ks):
            us = np.searchsorted(cum, ks, "right") - 1
            out_u.append(us)
            out_v.append(ks - cum[us] + us + 1)
        if done:
            break
        pos = int(ks[-1])
    return np.concatenate(out_u), np.concatenate(out_v)


def _complete_pairs(n: int):
    iu = np.triu_indices(n, k=1)
    return iu[0].astype(np.int64), iu[1].astype(np.int64)


def _paley_pairs(q: int):
    # x ~ y iff x - y is a nonzero quadratic residue mod q; q = 1 mod 4 makes
    # -1 a residue, so adjacency is symmetric. Row a of the upper triangle is
    # a + r for the residues r < q - a, in ascending order.
    is_residue = np.zeros(q, dtype=bool)
    x = np.arange(1, q, dtype=np.int64)
    is_residue[x * x % q] = True
    residues = np.flatnonzero(is_residue)
    rows = np.arange(q, dtype=np.int64)
    counts = np.searchsorted(residues, q - rows)
    eu = np.repeat(rows, counts)
    first = np.cumsum(counts) - counts
    ev = eu + residues[np.arange(len(eu)) - np.repeat(first, counts)]
    return eu, ev


def _near_regular_perturbed(n: int, p: float, seed: int) -> Graph:
    eu, ev = _gnp_pairs(n, p, seed)
    if n < 2:
        return _from_edge_arrays(n, eu, ev)  # no pair to toggle
    rng = derived(seed, 1)
    k = max(1, int(np.ceil(_PERTURB_FRACTION * n)))
    x = rng.choice(n, size=min(k, n), replace=False)
    y = rng.integers(0, n - 1, size=len(x))
    y += y >= x  # uniform over [n] \ {x}
    # toggle each chosen pair; a pair drawn twice keeps its original state
    toggled, times = np.unique(np.minimum(x, y) * n + np.maximum(x, y), return_counts=True)
    codes = np.setxor1d(eu * n + ev, toggled[times % 2 == 1], assume_unique=True)
    return _from_edge_arrays(n, codes // n, codes % n)


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
        raise SampledModeUnavailable(
            f"exact co-degree needs n <= {EXACT_CODEGREE_CAP}, got {g.n}")


def max_co_degree(g: Graph, sample_pairs: int = 50_000) -> CoDegreeResult:
    """Maximum co-degree over unordered pairs, with one attaining pair.

    Exact strategy (n <= EXACT_CODEGREE_CAP): one packed bitset row per
    vertex (n**2 bits total) and popcounted row ANDs; runtime grows like
    n**3, several minutes near the default cap. Beyond the cap: exact
    intersection counts over `sample_pairs` sampled pairs plus all pairs
    among the top-degree 1% of vertices, mode flagged "sampled" (a lower
    bound on the true maximum).
    Deterministic for a given graph; the sampling stream is keyed by
    (n, edge_count).
    """
    if g.n < 2:
        raise GraphTooSmall("max_co_degree needs n >= 2")
    if _codegree_is_exact(g):
        value, pair = _max_codegree_among(g, np.arange(g.n))
        return CoDegreeResult(value=value, pair=pair, mode="exact")
    value, pair = _max_codegree_sampled(g, sample_pairs)
    return CoDegreeResult(value=value, pair=pair, mode="sampled")


def _bit_rows(g: Graph, rows: np.ndarray) -> np.ndarray:
    """Row i is np.packbits of the neighbor mask of rows[i]."""
    i, w = adjacency_rows(g, rows)
    out = np.zeros((len(rows), (g.n + 7) // 8), dtype=np.uint8)
    np.bitwise_or.at(out, (i, w >> 3), (0x80 >> (w & 7)).astype(np.uint8))
    return out


def _max_codegree_among(g: Graph, rows: np.ndarray):
    """Largest co-degree over the pairs of the ascending vertex array `rows`,
    with the first pair attaining it, by popcounted ANDs of packed rows."""
    packed = _bit_rows(g, rows)
    best = -1
    pair = (0, 1)
    for i in range(len(rows) - 1):
        counts = np.bitwise_count(packed[i] & packed[i + 1:]).sum(axis=1, dtype=np.int64)
        j = int(np.argmax(counts))
        if counts[j] > best:
            best = int(counts[j])
            pair = (int(rows[i]), int(rows[i + 1 + j]))
    return best, pair


def _max_codegree_sampled(g: Graph, sample_pairs: int):
    # All pairs among the top-degree 1% (ties broken by index): high-degree
    # vertices dominate the maximum.
    t = max(2, g.n // 100)
    top = np.sort(np.argsort(-g.degrees(), kind="stable")[:t])
    best, pair = _max_codegree_among(g, top)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((0xC0DE6, g.n, g.edge_count))))
    us = rng.integers(0, g.n, size=sample_pairs)
    vs = rng.integers(0, g.n - 1, size=sample_pairs)
    vs = vs + (vs >= us)
    for u, v in zip(us.tolist(), vs.tolist()):
        c = co_degree(g, u, v)
        if c > best:
            best = c
            pair = (min(u, v), max(u, v))
    return best, pair


_HEADER_PREFIX = "# n="
_MAX_DIGITS = 18  # longest id token parsed without int64 overflow
# the bytes that bytes.split() treats as whitespace
_SPACE = np.zeros(256, dtype=bool)
_SPACE[list(b" \t\n\r\x0b\x0c")] = True
_DIGIT_OR_SPACE = _SPACE.copy()
_DIGIT_OR_SPACE[ord("0"):ord("9") + 1] = True


def load_edge_list(path) -> Graph:
    """Parse the canonical edge-list format (see save_edge_list).

    Blank lines and lines whose first non-blank character is '#' are
    skipped, except a single '# n=<N>' header, which must come before the
    first edge. Every other line holds two distinct vertex ids in ASCII
    decimal digits; each unordered pair may appear once. Without a header,
    n is the largest id plus one. The first bad line raises ParseError, or
    NonSimple for a self-loop or a repeated edge, with its 1-based number.

    The whole file is scanned at once with numpy: tokens are the runs of
    non-space bytes. Each check marks the lines it fails, whatever the
    lines before them hold; the first marked line reports the first check
    it fails.
    """
    with open(path, "rb") as fh:
        data = fh.read().replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    raw = np.frombuffer(data, dtype=np.uint8)
    line_ends = np.flatnonzero(raw == ord("\n"))
    n_lines = len(line_ends) + 1

    def line_bytes(i):
        start = int(line_ends[i - 1]) + 1 if i else 0
        return data[start:int(line_ends[i]) if i < len(line_ends) else len(data)]

    space = np.concatenate(([True], _SPACE[raw], [True]))
    bounds = np.flatnonzero(space[1:] != space[:-1])
    starts, ends = bounds[0::2], bounds[1::2]
    tok_line = np.searchsorted(line_ends, starts)
    leading = np.ones(len(starts), dtype=bool)
    leading[1:] = tok_line[1:] != tok_line[:-1]
    comment_lines = tok_line[leading & (raw[starts] == ord("#"))]
    is_comment = np.zeros(n_lines, dtype=bool)
    is_comment[comment_lines] = True
    on_edge_line = ~is_comment[tok_line]
    starts, ends, tok_line = starts[on_edge_line], ends[on_edge_line], tok_line[on_edge_line]
    first_edge_line = int(tok_line[0]) if len(tok_line) else n_lines

    # Headers: only the first one, if it comes before the first edge, sets n.
    declared_n, header_seen, header_errors = None, False, {}
    for i in comment_lines.tolist():
        try:
            line = line_bytes(i).decode("utf-8").strip()
        except UnicodeDecodeError:
            header_errors[i] = ParseError(i + 1, "line is not UTF-8")
            continue
        body = line[1:].strip()
        if not body.startswith("n="):
            continue
        if header_seen:
            header_errors[i] = ParseError(i + 1, f"repeated header {line!r}")
        elif i > first_edge_line:
            header_errors[i] = ParseError(i + 1, f"header {line!r} after the first edge")
        else:
            try:
                declared_n = int(body[2:])
            except ValueError:
                declared_n = -1
            if not 0 <= declared_n <= _MAX_N:
                header_errors[i] = ParseError(i + 1, f"bad header {line!r}")
                declared_n = None
        header_seen = True

    # Shape: two tokens of ASCII digits per edge line, none too long to parse.
    counts = np.bincount(tok_line, minlength=n_lines)
    bad_shape = (counts != 0) & (counts != 2)
    odd_line = np.searchsorted(line_ends, np.flatnonzero(~_DIGIT_OR_SPACE[raw]))
    bad_shape[odd_line[~is_comment[odd_line]]] = True
    bad_shape[tok_line[ends - starts > _MAX_DIGITS]] = True
    well_formed = ~bad_shape[tok_line]
    starts, ends, tok_line = starts[well_formed], ends[well_formed], tok_line[well_formed]

    ids = np.zeros(len(starts), dtype=np.int64)
    width = ends - starts
    for j in range(int(width.max()) if len(width) else 0):
        live = width > j
        ids[live] = ids[live] * 10 + (raw[starts[live] + j] - ord("0"))
    u, v, line_of = ids[0::2], ids[1::2], tok_line[0::2]

    # Values of the well-formed lines. Ids clipped to _MAX_N only make
    # false duplicates after a line that is already too large.
    too_large = np.maximum(u, v) >= _MAX_N
    self_loop = u == v
    lo = np.minimum(np.minimum(u, v), _MAX_N)
    hi = np.minimum(np.maximum(u, v), _MAX_N)
    span = int(hi.max()) + 1 if len(hi) else 1
    key = lo * span + hi
    duplicate = np.zeros(len(key), dtype=bool)
    if not (key[1:] > key[:-1]).all():
        order = np.argsort(key, kind="stable")
        key = key[order]
        duplicate[order[1:][key[1:] == key[:-1]]] = True
    outside = hi >= declared_n if declared_n is not None else np.zeros(len(hi), dtype=bool)

    bad_value = too_large | self_loop | duplicate | outside
    first_bad = min(header_errors, default=n_lines)
    for bad_lines in (np.flatnonzero(bad_shape), line_of[bad_value]):
        first_bad = min([first_bad, *bad_lines[:1].tolist()])
    if first_bad in header_errors:
        raise header_errors[first_bad]
    if first_bad < n_lines and bad_shape[first_bad]:
        raise _shape_error(first_bad + 1, line_bytes(first_bad))
    if first_bad < n_lines:
        k, line_no = int(np.searchsorted(line_of, first_bad)), first_bad + 1
        if too_large[k]:
            raise ParseError(line_no, f"vertex id {max(u[k], v[k])} above {_MAX_N - 1}")
        if self_loop[k]:
            raise NonSimple(line_no, f"self-loop {u[k]}")
        if duplicate[k]:
            raise NonSimple(line_no, f"duplicate edge {(int(lo[k]), int(hi[k]))}")
        raise ParseError(line_no, f"vertex {hi[k]} outside declared n={declared_n}")
    n = declared_n if declared_n is not None else span if len(key) else 0
    return _from_edge_arrays(n, key // span, key % span)


def _shape_error(line_no: int, raw: bytes) -> ParseError:
    """The error for an edge line that is not two ids of at most
    _MAX_DIGITS ASCII digits."""
    parts = raw.split()
    line = raw.decode("utf-8", errors="replace").strip()
    if len(parts) != 2:
        return ParseError(line_no, f"expected two vertex ids, got {line!r}")
    if all(part.isdigit() for part in parts):
        return ParseError(line_no, f"vertex id too large in {line!r}")
    if any(part[:1] == b"-" and part[1:].isdigit() for part in parts):
        return ParseError(line_no, f"negative vertex id in {line!r}")
    return ParseError(line_no, f"non-integer vertex id in {line!r}")


def save_edge_list(g: Graph, path):
    """Write canonical form: '# n=<N>' header, then 'u v' lines with u < v,
    sorted by (u, v). save -> load -> save is byte-identical."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{_HEADER_PREFIX}{g.n}\n")
        for u in range(g.n):
            row = g.neighbors_of(u)
            for v in row[np.searchsorted(row, u + 1):]:
                fh.write(f"{u} {v}\n")
