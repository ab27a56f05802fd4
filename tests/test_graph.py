"""Graph construction, queries, and edge-list io.

Generated families are checked against independent re-implementations: a
scalar geometric-skip sampler for gnp, a quadratic-residue table for paley,
a set-toggling loop for the perturbed family, dense-matrix co-degree counts,
a lexsort CSR builder, per-vertex sorted Python lists and a line-at-a-time
edge-list reader. The property tests draw their inputs with hypothesis;
tracemalloc tests bound the peak memory of generation, of the sampled
co-degree scan and of edge-list load and save.
"""

import math
import os
import random
import subprocess
import sys
import tracemalloc
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import build_graph, complete_graph, cycle_graph, edge_set, path_graph, star_graph
from percolab import (
    CoDegreeResult,
    GeneratorSpec,
    co_degree,
    generate,
    graph,
    load_edge_list,
    max_co_degree,
    save_edge_list,
)
from percolab.certify import tightest_profile
from percolab.errors import InvalidParameter, NonSimple, ParseError, PercolabError, ResourceLimit
from percolab.graph import (
    _from_upper_rows,
    _is_prime,
    _max_codegree_among,
    _near_regular_perturbed,
    adjacency_rows,
    degrees_into,
    vertex_set,
)
from percolab.rng import derived


def check_invariants(g):
    """Full-scan structural check: simple, symmetric, sorted rows, handshake."""
    assert g.offsets[0] == 0 and g.offsets[-1] == len(g.neighbors)
    total = 0
    for v in range(g.n):
        row = g.neighbors_of(v)
        assert (row >= 0).all() and (row < g.n).all()
        if len(row) > 1:
            assert (np.diff(row.astype(np.int64)) > 0).all()
        assert v not in row
        for w in row.tolist():
            assert g.has_edge(w, v)
        total += len(row)
    assert total == 2 * g.edge_count


# --- generators ---


def test_complete_k4():
    g = generate(GeneratorSpec(kind="complete", n=4))
    assert g.edge_count == 6
    assert [g.degree(v) for v in range(4)] == [3, 3, 3, 3]
    assert edge_set(g) == {(u, v) for u in range(4) for v in range(u + 1, 4)}


def paley_edges_oracle(q):
    residues = {(x * x) % q for x in range(1, q)}
    return {(a, b) for a in range(q) for b in range(a + 1, q)
            if (b - a) % q in residues}


def test_paley_5_is_a_cycle():
    g = generate(GeneratorSpec(kind="paley", q=5))
    assert edge_set(g) == {(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)}


@pytest.mark.parametrize("q", [5, 13, 17, 29, 37])
def test_paley_matches_residue_oracle(q):
    g = generate(GeneratorSpec(kind="paley", q=q))
    assert edge_set(g) == paley_edges_oracle(q)
    assert set(g.degrees().tolist()) == {(q - 1) // 2}


def test_paley_13_codegrees():
    g = generate(GeneratorSpec(kind="paley", q=13))
    assert g.degree(0) == 6
    for u in range(13):
        for v in range(u + 1, 13):
            want = 2 if g.has_edge(u, v) else 3
            assert co_degree(g, u, v) == want


@pytest.mark.parametrize("q", [5, 13, 17, 29, 37, 41, 53, 61, 73, 89, 97, 101])
def test_paley_two_codegree_values(q):
    # strongly regular: co-degree is (q-5)/4 on edges, (q-1)/4 off edges
    g = generate(GeneratorSpec(kind="paley", q=q))
    a = np.zeros((q, q), dtype=np.int64)
    for v in range(q):
        a[v, g.neighbors_of(v)] = 1
    co = a @ a
    seen = {int(co[u, v]) for u in range(q) for v in range(u + 1, q)}
    assert seen == {(q - 5) // 4, (q - 1) // 4}


def gnp_scalar_oracle(n, p, seed):
    """The pairs of G(n, p) in draw order, one uniform at a time, in Python
    integers: each pair index found by a binary search over the row starts."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    total = n * (n - 1) // 2
    log1mp = math.log1p(-p)
    pos = -1
    pairs = []
    while True:
        pos += int(math.log1p(-rng.random()) / log1mp) + 1
        if pos >= total:
            return pairs
        lo, hi = 0, n - 1
        while lo < hi:  # largest r with r*n - r(r+1)/2 <= pos
            mid = (lo + hi + 1) // 2
            if mid * n - mid * (mid + 1) // 2 <= pos:
                lo = mid
            else:
                hi = mid - 1
        base = lo * n - lo * (lo + 1) // 2
        pairs.append((lo, pos - base + lo + 1))


def test_gnp_matches_scalar_oracle():
    """Batched geometric skipping must equal a one-uniform-at-a-time sampler."""
    n, p, seed = 1000, 0.1, 7
    g = generate(GeneratorSpec(kind="gnp", n=n, p=p, seed=seed))
    assert g.edge_count == 49793
    assert edge_set(g) == set(gnp_scalar_oracle(n, p, seed))


@pytest.mark.parametrize("batch", [1, 3, 64, 1 << 16])
@pytest.mark.parametrize("n,p,seed", [
    (60, 0.995, 1),  # many batches inside one row
    (3000, 0.0005, 2),  # one batch spans many rows, most of them empty
    (150, 0.3, 5),
    (2, 0.5, 0),  # the first gap overshoots the one pair
    (2, 0.9, 3),
    (3, 0.7, 1),
    (3, 0.999, 4),
    (1000, 1e-300, 1),  # every gap is past the last pair
])
def test_gnp_batches_match_scalar_oracle(monkeypatch, batch, n, p, seed):
    """Batch boundaries fall inside rows and across runs of rows; the pairs
    come out in the scalar sampler's order, as per-row counts and upper
    neighbors of the least unsigned type that holds n - 1."""
    monkeypatch.setattr(graph, "_GNP_BATCH", batch)
    upper, ev = graph._gnp_pairs(n, p, seed)
    assert ev.dtype == (np.uint8 if n <= 256 else np.uint16 if n <= 65536 else np.uint32)
    assert len(upper) == n and upper.sum() == len(ev)
    eu = np.repeat(np.arange(n), upper)
    assert list(zip(eu.tolist(), ev.tolist())) == gnp_scalar_oracle(n, p, seed)


def test_gnp_is_pure():
    spec = GeneratorSpec(kind="gnp", n=500, p=0.05, seed=12)
    g1 = generate(spec)
    g2 = generate(spec)
    assert np.array_equal(g1.offsets, g2.offsets)
    assert np.array_equal(g1.neighbors, g2.neighbors)
    assert g1.edge_count == g2.edge_count


@pytest.mark.parametrize("n,p,seed", [(300, 0.02, 0), (1000, 0.01, 3), (800, 0.2, 9)])
def test_gnp_edge_count_near_mean(n, p, seed):
    g = generate(GeneratorSpec(kind="gnp", n=n, p=p, seed=seed))
    mean = n * (n - 1) / 2 * p
    sd = math.sqrt(mean * (1 - p))
    assert abs(g.edge_count - mean) < 6 * sd


@pytest.mark.parametrize("spec", [
    GeneratorSpec(kind="gnp", n=200, p=0.05, seed=0),
    GeneratorSpec(kind="gnp", n=200, p=0.05, seed=1),
    GeneratorSpec(kind="gnp", n=64, p=0.5, seed=2),
    GeneratorSpec(kind="paley", q=13),
    GeneratorSpec(kind="paley", q=29),
    GeneratorSpec(kind="complete", n=25),
    GeneratorSpec(kind="near_regular_perturbed", n=300, p=0.05, seed=7),
])
def test_generated_graph_invariants(spec):
    check_invariants(generate(spec))


def test_near_regular_perturbation_budget():
    n, p, seed = 500, 0.03, 4
    base = generate(GeneratorSpec(kind="gnp", n=n, p=p, seed=seed))
    pert = generate(GeneratorSpec(kind="near_regular_perturbed", n=n, p=p, seed=seed))
    diff = edge_set(base) ^ edge_set(pert)
    assert 1 <= len(diff) <= max(1, math.ceil(0.01 * n))


def test_gnp_with_no_pair_drawn():
    # the first geometric gap already overshoots the single pair of n=2
    g = generate(GeneratorSpec(kind="gnp", n=2, p=0.5, seed=0))
    assert g.n == 2 and g.edge_count == 0 and g.offsets.tolist() == [0, 0, 0]


@pytest.mark.parametrize("n", [0, 1, 2])
def test_perturbed_tiny_n(n):
    # below n = 2 there is no pair to toggle, so the gnp graph comes back as is
    spec = GeneratorSpec(kind="near_regular_perturbed", n=n, p=0.5, seed=1)
    g = generate(spec)
    assert g.n == n
    if n < 2:
        assert g.edge_count == 0 and g.offsets.tolist() == [0] * (n + 1)


def test_empty_and_tiny_graphs():
    g0 = generate(GeneratorSpec(kind="complete", n=0))
    assert g0.n == 0 and g0.edge_count == 0
    g1 = generate(GeneratorSpec(kind="complete", n=1))
    assert g1.n == 1 and g1.edge_count == 0 and g1.degree(0) == 0


# --- spec validation and caps ---


INVALID_SPECS = [
    (GeneratorSpec(kind="tree", n=5), "unknown kind 'tree'"),
    (GeneratorSpec(kind="gnp", n=100, p=0.5), "kind 'gnp' needs exactly"),  # missing seed
    (GeneratorSpec(kind="gnp", n=100, p=0.5, seed=0, q=5), "kind 'gnp' needs exactly"),  # extra
    (GeneratorSpec(kind="complete", n=4, seed=1), "kind 'complete' needs exactly"),
    (GeneratorSpec(kind="gnp", n=100, p=0.0, seed=0), r"p must be in \(0,1\), got 0\.0"),
    (GeneratorSpec(kind="gnp", n=100, p=1.0, seed=0), r"p must be in \(0,1\), got 1\.0"),
    (GeneratorSpec(kind="gnp", n=-3, p=0.5, seed=0), r"n must be in \[0, \d+\], got -3"),
    (GeneratorSpec(kind="gnp", n=10, p=0.5, seed=-1), "seed must be >= 0, got -1"),
    (GeneratorSpec(kind="paley", q=9), "q must be a prime = 1 mod 4"),    # not prime
    (GeneratorSpec(kind="paley", q=7), "q must be a prime = 1 mod 4"),    # 3 mod 4
    (GeneratorSpec(kind="paley", q=3), "q must be a prime = 1 mod 4"),    # below floor
    # numpy UFuncTypeError, TypeError, TypeError, and a graph whose n is True
    (GeneratorSpec(kind="gnp", n=10.5, p=0.3, seed=1), "n must be an integer, got 10.5"),
    (GeneratorSpec(kind="gnp", n=10, p=0.3, seed=1.5), "seed must be an integer, got 1.5"),
    (GeneratorSpec(kind="paley", q=13.0), "q must be an integer, got 13.0"),
    (GeneratorSpec(kind="complete", n=True), "n must be an integer, got True"),
    (GeneratorSpec(kind="gnp", n=10, p=0.3, seed=np.bool_(True)), "seed must be an integer"),
    (GeneratorSpec(kind="gnp", n="10", p=0.3, seed=1), "n must be an integer, got '10'"),
    # TypeError from comparing a str with a float, and a range error for True
    (GeneratorSpec(kind="gnp", n=10, p="0.5", seed=1), "p must be a real number, got '0.5'"),
    (GeneratorSpec(kind="gnp", n=10, p=True, seed=1), "p must be a real number, got True"),
]


@pytest.mark.parametrize("spec, message", INVALID_SPECS,
                         ids=[f"spec{i}" for i in range(len(INVALID_SPECS))])
def test_invalid_specs(spec, message):
    with pytest.raises(InvalidParameter, match=message):
        generate(spec)


@pytest.mark.parametrize("int_type", [np.int32, np.int64, np.uint16])
def test_numpy_integer_specs_are_accepted(int_type):
    for spec in (GeneratorSpec(kind="gnp", n=int_type(30), p=0.2, seed=int_type(4)),
                 GeneratorSpec(kind="paley", q=int_type(13))):
        plain = GeneratorSpec(kind=spec.kind, n=None if spec.n is None else int(spec.n),
                              p=spec.p, q=None if spec.q is None else int(spec.q),
                              seed=None if spec.seed is None else int(spec.seed))
        g, want = generate(spec), generate(plain)
        assert g.n == want.n and np.array_equal(g.offsets, want.offsets)
        assert np.array_equal(g.neighbors, want.neighbors)


def test_edge_cap(monkeypatch):
    with pytest.raises(ResourceLimit):
        generate(GeneratorSpec(kind="complete", n=100_000))
    monkeypatch.setattr("percolab.graph.DEFAULT_EDGE_CAP", 10)
    with pytest.raises(ResourceLimit):
        generate(GeneratorSpec(kind="gnp", n=1000, p=0.5, seed=0))


def test_edge_cap_counts_vertices_too(monkeypatch):
    # the cap bounds n plus the expected edges, so an empty-looking gnp with a
    # huge n is refused before its O(n) row starts are allocated (the CLI
    # test gen-n-above-edge-cap runs n = 2e9 under an address-space limit)
    monkeypatch.setattr("percolab.graph.DEFAULT_EDGE_CAP", 10)
    assert generate(GeneratorSpec(kind="complete", n=4)).edge_count == 6  # 4 + 6 entries
    assert generate(GeneratorSpec(kind="gnp", n=9, p=1e-9, seed=1)).edge_count == 0
    for spec in (GeneratorSpec(kind="complete", n=5),  # 5 + 10 entries
                 GeneratorSpec(kind="gnp", n=11, p=1e-9, seed=1),
                 GeneratorSpec(kind="near_regular_perturbed", n=11, p=1e-9, seed=1)):
        with pytest.raises(ResourceLimit, match=r"n = \d+ plus .* expected edges exceeds cap 10"):
            generate(spec)


# --- queries ---


def test_degree_and_codegree_on_star():
    g = star_graph(6)
    assert g.degree(0) == 5
    assert all(g.degree(v) == 1 for v in range(1, 6))
    assert co_degree(g, 1, 2) == 1   # both see the center
    assert co_degree(g, 0, 1) == 0
    with pytest.raises(InvalidParameter, match="co_degree needs u != v, got 2"):
        co_degree(g, 2, 2)
    with pytest.raises(InvalidParameter, match=r"vertex 6 not in 0\.\.5"):
        g.degree(6)
    with pytest.raises(InvalidParameter, match=r"vertex 17 not in 0\.\.5"):
        co_degree(g, 0, 17)


def test_codegree_and_has_edge_refuse_non_integer_ids():
    # co_degree(g, 1.5, 2) used to raise a bare IndexError, and
    # co_degree(g, 1, True) to refuse with "needs u != v, got 1"
    g = star_graph(6)
    for u, v in ((1.5, 2), (1, True), (np.True_, 2), ("1", 2), (1, math.nan)):
        with pytest.raises(InvalidParameter, match="vertices must be integer ids, got"):
            co_degree(g, u, v)
        with pytest.raises(InvalidParameter, match="vertices must be integer ids, got"):
            g.has_edge(u, v)
    # whole-valued reals and numpy integers read as their ids
    assert co_degree(g, 1.0, np.int32(2)) == 1
    assert g.has_edge(np.int64(0), 3.0) and not g.has_edge(1, 2)


def test_neighbors_of_range_check(k4):
    with pytest.raises(InvalidParameter, match=r"vertex -1 not in 0\.\.3"):
        k4.neighbors_of(-1)


def test_has_edge_refuses_either_id_out_of_range(k4):
    # has_edge(0, 99) and has_edge(0, -1) used to return False
    for u, v, bad in ((99, 0, 99), (0, 99, 99), (-1, 0, -1), (0, -1, -1)):
        with pytest.raises(InvalidParameter, match=rf"vertex {bad} not in 0\.\.3"):
            k4.has_edge(u, v)


def test_neighbors_of_and_degree_refuse_non_integer_ids():
    # neighbors_of(True) used to raise numpy's TypeError, and 1.5 a bare
    # IndexError; ids read as in vertex_set
    g = star_graph(6)
    for v in (True, np.True_, 1.5, "3", math.nan):
        with pytest.raises(InvalidParameter, match="vertices must be integer ids, got"):
            g.neighbors_of(v)
        with pytest.raises(InvalidParameter, match="vertices must be integer ids, got"):
            g.degree(v)
    for v in (2.0, np.int8(2)):
        assert g.neighbors_of(v).tolist() == [0] and g.degree(v) == 1
    assert g.degree(np.float64(0.0)) == 5


def naive_max_codegree(g, rows=None):
    """Largest co-degree over the pairs of `rows` (default: every vertex),
    with the first pair in (u, v) order attaining it."""
    rows = list(range(g.n)) if rows is None else rows
    nbrs = {v: set(g.neighbors_of(v).tolist()) for v in rows}
    best, pair = -1, None
    for x, u in enumerate(rows):
        for v in rows[x + 1:]:
            c = len(nbrs[u] & nbrs[v])
            if c > best:
                best, pair = c, (u, v)
    return best, pair


def sampled_rows_oracle(g, sample_pairs):
    """The rows of the sampled scan, rebuilt from their documentation: the
    top-degree 1% (ties by index) and r distinct uniform vertices, r the
    least with C(r, 2) >= sample_pairs (at most n), chosen without
    replacement from the stream keyed by (0xC0DE6, n, edge_count)."""
    deg = g.degrees().tolist()
    top = sorted(range(g.n), key=lambda v: (-deg[v], v))[:max(2, g.n // 100)]
    r = 0
    while r * (r - 1) // 2 < sample_pairs:
        r += 1
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((0xC0DE6, g.n, g.edge_count))))
    return sorted(set(top) | set(rng.choice(g.n, size=min(r, g.n), replace=False).tolist()))


def test_max_codegree_hand_cases(k4):
    r = max_co_degree(complete_graph(5))
    assert (r.value, r.mode) == (3, "exact")
    assert r.pair[0] != r.pair[1]
    assert max_co_degree(k4).value == 2
    assert max_co_degree(star_graph(5)).value == 1
    assert max_co_degree(path_graph(2)).value == 0
    with pytest.raises(InvalidParameter, match="max_co_degree needs n >= 2"):
        max_co_degree(path_graph(1))


def test_max_codegree_matches_naive():
    g = generate(GeneratorSpec(kind="gnp", n=300, p=0.2, seed=3))
    r = max_co_degree(g)
    best, _ = naive_max_codegree(g)
    assert r.mode == "exact"
    assert r.value == best == 28
    assert co_degree(g, *r.pair) == r.value


def test_max_codegree_sampled_lower_bound(monkeypatch):
    g = generate(GeneratorSpec(kind="gnp", n=50, p=0.3, seed=1))
    exact = max_co_degree(g)
    monkeypatch.setattr("percolab.graph.EXACT_CODEGREE_CAP", 10)
    sampled = max_co_degree(g)
    assert exact.mode == "exact" and sampled.mode == "sampled"
    assert sampled.value <= exact.value
    assert co_degree(g, *sampled.pair) == sampled.value
    # dense enough that the top-degree sweep finds the true maximum here
    assert sampled.value == exact.value == 12


def test_codegree_kernel_keeps_first_attaining_pair(monkeypatch):
    # both modes report the first pair, in (u, v) order, attaining the maximum
    paley = generate(GeneratorSpec(kind="paley", q=101))  # many pairs tie at 25
    assert naive_max_codegree(paley) == (25, (0, 2))
    assert max_co_degree(paley) == CoDegreeResult(25, (0, 2), "exact")
    g = generate(GeneratorSpec(kind="gnp", n=1200, p=0.05, seed=2))
    # sample_pairs=0 leaves only the all-pairs scan of the top-degree 1%
    top = sampled_rows_oracle(g, 0)
    assert len(top) == 12 and naive_max_codegree(g, top) == (11, (206, 244))
    # the default adds 317 uniform rows, among them a pair at the exact maximum
    rows = sampled_rows_oracle(g, 50_000)
    assert naive_max_codegree(g, rows)[0] == max_co_degree(g).value == 14
    monkeypatch.setattr("percolab.graph.EXACT_CODEGREE_CAP", 100)
    assert max_co_degree(g, sample_pairs=0) == CoDegreeResult(11, (206, 244), "sampled")
    assert max_co_degree(g) == CoDegreeResult(*naive_max_codegree(g, rows), "sampled")


@st.composite
def codegree_hosts(draw):
    """A small host: gnp of several densities, a star, hubs joined to most
    of a sparse gnp, or a graph without a wedge (disjoint edges)."""
    kind = draw(st.sampled_from(["gnp", "star", "hubs", "no_wedge"]))
    n = draw(st.integers(2, 60))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    if kind == "gnp":
        p = draw(st.sampled_from([0.02, 0.1, 0.3, 0.8]))
        return generate(GeneratorSpec(kind="gnp", n=n, p=p, seed=seed))
    if kind == "star":
        return star_graph(n)
    order = derived(seed, 0).permutation(n).tolist()
    if kind == "no_wedge":
        k = draw(st.integers(0, n // 2))
        return build_graph(n, [(order[2 * j], order[2 * j + 1]) for j in range(k)])
    hubs = order[:draw(st.integers(1, 3))]
    joined = derived(seed, 1).random((len(hubs), n)) < 0.7
    base = edge_set(generate(GeneratorSpec(kind="gnp", n=n, p=0.05, seed=seed)))
    return build_graph(n, base | {(min(h, v), max(h, v)) for k, h in enumerate(hubs)
                                  for v in range(n) if v != h and joined[k, v]})


def codegree_with(g, sample_pairs=50_000, **constants):
    """max_co_degree with the module constants of `graph` rebound."""
    with mock.patch.multiple("percolab.graph", **constants):
        return max_co_degree(g, sample_pairs)


def refuse(*args):
    raise AssertionError("the other kernel was forced")


def forced_kernels(best, top):
    """Constants of `graph` that force each all-pairs kernel: the wedge
    count (a key cost of 0), also at one-key chunks, and the dense tiles (a
    huge key cost) at tiles of one row and of 7 to 21 rows (fewer on a small
    host), each packing one tile per product (_FLOAT32_EXACT just above
    `top`, the rows' largest degree) and as many as float32 holds (2**24,
    24 // bits tiles of bits = top.bit_length()), and at tiles of the whole
    host. `best` is the scan's maximum: where it is 0 the rows share no
    neighbor, and the wedge count, with no work, scans anyway."""
    wedges = {"_WEDGE_KEY_MADDS": 0, "_max_codegree_dense": refuse}
    dense = {"_WEDGE_KEY_MADDS": 10 ** 18, **({"_max_codegree_wedges": refuse} if best else {})}
    return [wedges, {**wedges, "_CODEGREE_CHUNK_KEYS": 1},
            *({**dense, "_DENSE_TILE_BYTES": budget, "_FLOAT32_EXACT": exact}
              for budget in (4, 4 * 448) for exact in (top + 1, 1 << 24)),
            {**dense, "_DENSE_TILE_BYTES": 1 << 21}]


@settings(max_examples=200, deadline=None)
@given(codegree_hosts())
def test_wedge_and_dense_kernels_equal_the_naive_scan(g):
    # an exact scan reads the CSR in place: it gathers no row
    best, pair = naive_max_codegree(g)
    want = CoDegreeResult(best, pair, "exact")
    for constants in forced_kernels(best, int(g.degrees().max())):
        assert codegree_with(g, adjacency_rows=refuse, **constants) == want


@settings(max_examples=100, deadline=None)
@given(codegree_hosts(), st.data())
def test_kernels_scan_ascending_row_subsets(g, data):
    # the sampled mode scans an ascending subset: the top-degree 1% of
    # vertices and the uniform rows
    rows = sorted(data.draw(st.sets(st.integers(0, g.n - 1), min_size=2)))
    best, pair = naive_max_codegree(g, rows)
    for constants in forced_kernels(best, int(g.degrees()[rows].max())):
        with mock.patch.multiple("percolab.graph", **constants):
            assert _max_codegree_among(g, np.array(rows, dtype=np.int64)) == (best, pair)


def wedge_counts(g, **constants):
    """The forced wedge-count scan of every vertex of g, with the number of
    chunks counted in bins and of chunks sorted."""
    with mock.patch("percolab.graph._first_largest_bin", wraps=graph._first_largest_bin) as bins, \
            mock.patch("percolab.graph._first_largest_run", wraps=graph._first_largest_run) as runs:
        r = codegree_with(g, _WEDGE_KEY_MADDS=0, _max_codegree_dense=refuse, **constants)
    return (r.value, r.pair), bins.call_count, runs.call_count


@pytest.mark.parametrize("spec, best", [
    (GeneratorSpec(kind="paley", q=101), (25, (0, 2))),  # many pairs tie at 25
    (GeneratorSpec(kind="gnp", n=300, p=0.2, seed=3), (28, (156, 181))),
])
def test_dense_chunks_count_their_keys_in_bins(spec, best):
    # each chunk of r rows holds more keys than its r * t key values
    g = generate(spec)
    found, bins, runs = wedge_counts(g)
    assert found == naive_max_codegree(g) == best
    assert bins >= 1 and runs == 0


def test_sparse_chunks_sort_their_keys():
    # gnp 400/0.02: about 11k keys against 160k key values
    g = generate(GeneratorSpec(kind="gnp", n=400, p=0.02, seed=1))
    found, bins, runs = wedge_counts(g)
    assert found == naive_max_codegree(g) == (4, (69, 219))
    assert bins == 0 and runs >= 1


def test_one_scan_counts_some_chunks_and_sorts_others():
    # three hubs joined to every other vertex of a sparse gnp: with one row a
    # chunk, an early row v shares a hub with each later row three times
    # (3 (n - 1 - v) keys >= n key values) and a late row does not
    n = 60
    base = edge_set(generate(GeneratorSpec(kind="gnp", n=n, p=0.05, seed=4)))
    g = build_graph(n, base | {(h, v) for h in range(3) for v in range(h + 1, n)})
    found, bins, runs = wedge_counts(g, _CODEGREE_CHUNK_KEYS=1)
    assert found == naive_max_codegree(g)
    assert bins >= 1 and runs >= 1


@st.composite
def pair_bin_scans(draw):
    """A host and an ascending row set whose t*t row pairs are no more than
    the rows' incidences: rows of a dense gnp, of a Paley graph (whose
    co-degrees tie at two values), the t centres of t disjoint stars of t
    leaves, which share no neighbor, or hubs 0 and 1 with some of the m
    leaves both are joined to. The hubs share m = 255 neighbors, the most a
    uint8 bin holds, or m = 256, which takes a uint16 bin."""
    kind = draw(st.sampled_from(["gnp", "paley", "stars", "hubs"]))
    if kind == "stars":
        t = draw(st.integers(2, 6))
        stars = [(c, t + c * t + j) for c in range(t) for j in range(t)]
        return build_graph(t + t * t, stars), list(range(t))
    if kind == "hubs":
        m = draw(st.sampled_from([255, 256]))
        g = build_graph(m + 2, [(h, v) for h in (0, 1) for v in range(2, m + 2)])
        return g, [0, 1, *sorted(draw(st.sets(st.integers(2, m + 1), max_size=12)))]
    if kind == "paley":
        g = generate(GeneratorSpec(kind="paley", q=draw(st.sampled_from([13, 17, 29, 37, 41]))))
    else:
        g = generate(GeneratorSpec(kind="gnp", n=draw(st.integers(10, 60)),
                                   p=draw(st.sampled_from([0.5, 0.8])),
                                   seed=draw(st.integers(0, 2 ** 32 - 1))))
    rows = sorted(draw(st.sets(st.integers(0, g.n - 1), min_size=2)))
    while len(rows) ** 2 > g.degrees()[rows].sum():
        rows.pop()
    assume(len(rows) >= 2)
    return g, rows


@settings(max_examples=200, deadline=None)
@given(pair_bin_scans(), st.sampled_from([1 << 17, 1]))
def test_pair_bins_equal_the_naive_scan(scan, chunk_keys):
    # every key is counted in one bin per row pair, in one piece or one w
    # group a piece; the least key of the largest bin is the first pair
    g, rows = scan
    with mock.patch("percolab.graph._max_codegree_pair_bins",
                    wraps=graph._max_codegree_pair_bins) as bins, \
            mock.patch.multiple("percolab.graph", _WEDGE_KEY_MADDS=0, _max_codegree_dense=refuse,
                                _CODEGREE_CHUNK_KEYS=chunk_keys):
        found = _max_codegree_among(g, np.array(rows, dtype=np.int64))
    assert found == naive_max_codegree(g, rows)
    assert bins.call_count == 1


@st.composite
def incidences_at_key_width(draw):
    """The degrees of t rows and their neighbors w, row by row, each row's
    distinct and ascending, with a nominal vertex count n whose keys w*t + r
    take the drawn width of _end_type(n * t): uint8, uint16, uint32 or
    uint64."""
    t = draw(st.integers(1, 9))
    bits = draw(st.sampled_from([8, 16, 32, 64]))
    n = draw(st.integers((1 << bits // 2) // t + 1 if bits > 8 else 2,
                         (1 << bits) // t if bits < 64 else 1 << 40))
    per_row = [sorted(draw(st.sets(st.integers(0, min(n, 40) - 1), max_size=12))) for _ in range(t)]
    deg = np.array([len(r) for r in per_row], dtype=np.int64)
    w = np.array([v for r in per_row for v in r], dtype=np.int32)
    return deg, w, n, np.dtype(f"uint{bits}")


@settings(max_examples=300, deadline=None)
@given(incidences_at_key_width())
def test_rows_by_neighbor_is_the_stable_order_by_neighbor(case):
    # one sort of the narrow keys w*t + r, r repeated from the degrees,
    # groups the rows as a stable argsort by w does
    deg, w, n, width = case
    t = len(deg)
    assert graph._end_type(n * t) == width
    row_at = graph._rows_by_neighbor(deg, w, n)
    assert row_at.dtype == np.int32
    assert np.array_equal(row_at, np.repeat(np.arange(t), deg)[np.argsort(w, kind="stable")])


@pytest.mark.parametrize("g", [
    generate(GeneratorSpec(kind="paley", q=1009)), generate(GeneratorSpec(kind="paley", q=13)),
    complete_graph(2), complete_graph(300), star_graph(2), star_graph(250),
    *(generate(GeneratorSpec(kind="gnp", n=n, p=p, seed=1))
      for n, p in [(2, 0.5), (3, 0.5), (250, 0.005), (700, 0.003), (1000, 0.01)])])
def test_sampled_rows_take_the_top_degrees_of_a_stable_argsort(g):
    # hosts whose degrees tie heavily: the top 1% is the first max(2, n // 100)
    # of a stable argsort of -degrees, whichever ties it cuts
    top = np.argsort(-g.degrees(), kind="stable")[:max(2, g.n // 100)]
    assert graph._sampled_rows(g, 0).tolist() == sorted(top.tolist())
    for sample_pairs in (1, 300):
        assert graph._sampled_rows(g, sample_pairs).tolist() == sampled_rows_oracle(g, sample_pairs)


@pytest.mark.parametrize("spec, rows, incidences, bins, found", [
    (GeneratorSpec(kind="gnp", n=10000, p=0.05, seed=1), 413, 212_424, True, (51, (28, 6023))),
    (GeneratorSpec(kind="gnp", n=50000, p=2e-4, seed=1), 813, 12_800, False, (2, (24752, 31092))),
])
def test_sampled_scan_counts_pair_bins_only_when_pairs_fit(monkeypatch, spec, rows, incidences,
                                                          bins, found):
    # 413**2 = 170,569 row pairs fit in the dense host's incidences, and the
    # scan counts no chunk of rows; 813**2 = 660,969 do not fit in the sparse
    # host's, and it counts chunks
    g = generate(spec)
    monkeypatch.setattr(graph, "EXACT_CODEGREE_CAP", 9999)
    sampled = graph._sampled_rows(g, 50_000)
    assert (len(sampled), int(g.degrees()[sampled].sum())) == (rows, incidences)
    with mock.patch("percolab.graph._max_codegree_pair_bins",
                    wraps=graph._max_codegree_pair_bins) as pair_bins, \
            mock.patch("percolab.graph._first_largest_bin", wraps=graph._first_largest_bin) as chunk, \
            mock.patch("percolab.graph._first_largest_run", wraps=graph._first_largest_run) as run:
        assert max_co_degree(g) == CoDegreeResult(*found, "sampled")
    assert pair_bins.call_count == bins
    assert (chunk.call_count + run.call_count > 0) != bins


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 30), min_size=1), st.integers(0, 10))
def test_bins_and_sorting_find_the_same_first_largest_key(keys, extra):
    counts = Counter(keys)
    most = max(counts.values())
    want = (min(k for k, c in counts.items() if c == most), most)
    keys = np.array(keys, dtype=np.int64)
    span = int(keys.max()) + 1 + extra
    assert graph._first_largest_bin(keys, span) == graph._first_largest_run(keys) == want


@pytest.mark.parametrize("budget, rows_per_tile", [(4, 1), (4 * 707, 7), (4 * 1717, 17),
                                                   (4 * 5050, 50), (1 << 21, 101)])
def test_dense_tiles_keep_the_first_of_many_ties(budget, rows_per_tile):
    # Paley 101 has co-degrees 24 and 25 only; 101 rows are no multiple of 7,
    # 17 or 50, so the last tile is short. Its degree 50 takes 6-bit digits,
    # 4 tiles a product, and 101, 15, 6 and 3 tiles are no multiple of 4, so
    # the last product packs fewer tiles
    g = generate(GeneratorSpec(kind="paley", q=101))
    assert graph._packing(50) == (6, 4)
    with mock.patch.multiple("percolab.graph", _DENSE_TILE_BYTES=budget), \
            mock.patch("percolab.graph._max_codegree_dense",
                       wraps=graph._max_codegree_dense) as dense:
        assert graph._tile_rows(g.n, g.n) == rows_per_tile
        assert max_co_degree(g) == CoDegreeResult(25, (0, 2), "exact")
    assert dense.call_count == 1


@pytest.mark.parametrize("m, bits, tiles", [(255, 8, 3), (256, 9, 2)])
@pytest.mark.parametrize("budget", [4, 1 << 21])
def test_dense_digits_hold_a_count_equal_to_the_largest_degree(m, bits, tiles, budget):
    # hubs 0 and 2, not adjacent, share all m other vertices as leaves, so
    # their co-degree m is the largest degree: 255 fills an 8-bit digit, and
    # 256 takes 9 bits, two digits a product. With tiles of one row, vertex
    # 2 is the last digit of the first product (255 in bits 16-23) or the
    # first digit of the second (256 in bits 0-8)
    leaves = [v for v in range(m + 2) if v not in (0, 2)]
    g = build_graph(m + 2, [(h, v) for h in (0, 2) for v in leaves])
    assert int(g.degrees().max()) == m and graph._packing(m) == (bits, tiles)
    r = codegree_with(g, _WEDGE_KEY_MADDS=10 ** 18, _max_codegree_wedges=refuse,
                      _DENSE_TILE_BYTES=budget)
    assert r == CoDegreeResult(m, (0, 2), "exact")


def test_float32_limit_sends_the_scan_to_the_wedge_count():
    # gnp 400/0.2 scans with tiles; with the limit at its largest degree a
    # count could reach it, so the wedge count scans and finds the same
    g = generate(GeneratorSpec(kind="gnp", n=400, p=0.2, seed=1))
    top = int(g.degrees().max())
    want = max_co_degree(g)
    with mock.patch("percolab.graph._max_codegree_wedges", wraps=graph._max_codegree_wedges) as spy:
        assert codegree_with(g, _FLOAT32_EXACT=top + 1) == want
        assert spy.call_count == 0
        assert codegree_with(g, _FLOAT32_EXACT=top) == want
        assert spy.call_count == 1


@settings(max_examples=200, deadline=None)
@given(codegree_hosts(), st.sampled_from([0, 1, 7, 300]))
def test_sampled_mode_scans_the_top_degree_and_uniform_rows(g, sample_pairs):
    sampled = codegree_with(g, sample_pairs, EXACT_CODEGREE_CAP=1)
    assert sampled.mode == "sampled"
    assert (sampled.value, sampled.pair) == naive_max_codegree(g, sampled_rows_oracle(g, sample_pairs))
    assert sampled.value <= naive_max_codegree(g)[0]
    assert co_degree(g, *sampled.pair) == sampled.value


@pytest.mark.parametrize("cap", [10 ** 6, 1])
def test_negative_sample_pairs_is_rejected_in_both_modes(cap):
    # 1.5 used to raise TypeError in sampled mode and pass in exact mode
    g = generate(GeneratorSpec(kind="gnp", n=50, p=0.3, seed=1))
    for sample_pairs in (-1, 1.5):
        with pytest.raises(InvalidParameter):
            codegree_with(g, sample_pairs, EXACT_CODEGREE_CAP=cap)


@pytest.mark.parametrize("spec, kernel", [
    (GeneratorSpec(kind="gnp", n=3000, p=0.002, seed=1), "_max_codegree_wedges"),
    (GeneratorSpec(kind="gnp", n=400, p=0.2, seed=1), "_max_codegree_dense"),
    (GeneratorSpec(kind="paley", q=101), "_max_codegree_dense"),
    (GeneratorSpec(kind="gnp", n=2000, p=0.1, seed=1), "_max_codegree_dense"),
    (GeneratorSpec(kind="gnp", n=2000, p=0.04, seed=1), "_max_codegree_dense"),
])
def test_kernel_follows_the_estimated_work(spec, kernel):
    # in multiply-adds: sparse, 53k wedges (5.3e7) against 1.1e10 for the
    # tiles; dense, 1.3M wedges (1.3e9) against 9.6e7 for the tiles. On gnp
    # 2000/0.1 (a certify_exact host), 40M wedges (4.0e10) against 4.1e9 for
    # 17 products of 262-row tiles, 3 tiles packed in each. On gnp 2000/0.04,
    # 6.4M wedges (6.4e9) against the same 4.1e9, where the 36 products of
    # unpacked tiles would count 8.7e9; the tiles took 47 ms, the wedges 65
    g = generate(spec)
    with mock.patch(f"percolab.graph.{kernel}", wraps=getattr(graph, kernel)) as spy:
        r = max_co_degree(g)
    assert spy.call_count == 1 and r.mode == "exact"
    assert co_degree(g, *r.pair) == r.value


def exact_scan_in_subprocess(n, p):
    """max_co_degree of gnp(n, p, seed 1) in a fresh interpreter: mode,
    value, pair, the pair's co_degree, and the growth of ru_maxrss in MB."""
    script = (
        "import resource\n"
        "from percolab import GeneratorSpec, co_degree, generate, max_co_degree\n"
        f"g = generate(GeneratorSpec(kind='gnp', n={n}, p={p}, seed=1))\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "r = max_co_degree(g)\n"
        "grown = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before\n"
        "print(r.mode, r.value, *r.pair, co_degree(g, *r.pair), grown // 1024)\n")
    src = os.path.dirname(os.path.dirname(graph.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    mode, value, u, v, check, grown_mb = done.stdout.split()
    return mode, int(value), (int(u), int(v)), int(check), int(grown_mb)


def test_sparse_exact_scan_is_fast_and_chunked():
    # gnp n=20000, p=0.002 holds about 16M wedges. Dense tiles would take
    # about 4e12 multiply-adds; counting every key at once grew the peak by
    # about 400 MB.
    mode, value, pair, check, grown_mb = exact_scan_in_subprocess(20000, 0.002)
    assert (mode, value, pair) == ("exact", 5, (4767, 9188))
    assert check == value
    assert grown_mb < 256


def test_dense_exact_scan_is_tiled():
    # gnp n=6000, p=0.1 scans with 2 MB tiles of 87 rows. The scan reads its
    # 3.6M incidences in place in the CSR and takes their row counts from the
    # degrees, so beside the graph it holds a 4-byte cell per incidence (14
    # MB), the column gather that builds it, and about 6 MB of tiles: a
    # tracemalloc peak of 27.7 MB, and the peak RSS grew by 16 MB (numpy
    # 2.4.6). Gathering the rows as int64 row and int32 neighbor arrays and
    # counting the neighbors through an int64 copy grew it by 64 MB, and
    # making the cells through int64 arrays as well by 93 MB. A float32 copy
    # of all rows would take 144 MB, and their product as much again.
    mode, value, pair, check, grown_mb = exact_scan_in_subprocess(6000, 0.1)
    assert mode == "exact" and check == value
    assert grown_mb < 32


def test_degrees_into_hand_cases():
    g = star_graph(5)
    mask = np.zeros(5, dtype=bool)
    mask[[1, 2]] = True
    assert degrees_into(g, mask).tolist() == [2, 0, 0, 0, 0]
    p = path_graph(4)
    mask = np.array([True, False, True, False])
    assert degrees_into(p, mask).tolist() == [0, 2, 0, 1]


def test_degrees_into_matches_degree_when_u_is_everything():
    g = generate(GeneratorSpec(kind="gnp", n=150, p=0.1, seed=8))
    assert np.array_equal(degrees_into(g, np.ones(150, dtype=bool)), g.degrees())


# --- edge-list io ---


def test_load_edge_list(tmp_path):
    f = tmp_path / "g.edges"
    f.write_text("# n=5\n# a comment\n0 1\n\n1 2\n")
    g = load_edge_list(str(f))
    assert g.n == 5 and g.edge_count == 2
    assert edge_set(g) == {(0, 1), (1, 2)}
    assert g.degree(4) == 0  # declared but isolated


def test_load_without_header_uses_max_id(tmp_path):
    f = tmp_path / "g.edges"
    f.write_text("0 3\n")
    g = load_edge_list(str(f))
    assert g.n == 4 and g.edge_count == 1


@pytest.mark.parametrize("text,err,line_no", [
    ("0 1\n1 1\n", NonSimple, 2),
    ("0 1\n1 0\n", NonSimple, 2),
    ("0 x\n", ParseError, 1),
    ("0\n", ParseError, 1),
    ("0 1 2\n", ParseError, 1),
    ("# n=3\n0 5\n", ParseError, 2),
    ("-1 2\n", ParseError, 1),
    ("0 5\n1 2\n# n=3\n", ParseError, 3),  # header after an edge
    ("# n=5\n0 1\n# n=5\n", ParseError, 3),  # repeated header
])
def test_load_rejects_bad_lines(tmp_path, text, err, line_no):
    f = tmp_path / "bad.edges"
    f.write_text(text)
    with pytest.raises(err) as info:
        load_edge_list(str(f))
    assert info.value.line_no == line_no


def test_save_load_round_trip(tmp_path, monkeypatch):
    # row ranges of about 16 neighbor entries: the lines cross many ranges
    monkeypatch.setattr("percolab.graph._CODEGREE_CHUNK_KEYS", 16)
    g = generate(GeneratorSpec(kind="gnp", n=120, p=0.08, seed=2))
    f1 = tmp_path / "a.edges"
    f2 = tmp_path / "b.edges"
    save_edge_list(g, str(f1))
    h = load_edge_list(str(f1))
    assert h.n == g.n and edge_set(h) == edge_set(g)
    save_edge_list(h, str(f2))
    assert f1.read_bytes() == f2.read_bytes()
    lines = [f"{u} {v}\n" for u, v in sorted(edge_set(g))]
    assert f1.read_text() == f"# n={g.n}\n" + "".join(lines)


def test_save_writes_ids_across_powers_of_ten(tmp_path):
    # the digit entries change width at 10, 100, 1000 and 10000
    pairs = [(0, 9), (9, 10), (10, 99), (99, 100), (100, 999), (999, 1000), (9999, 10000),
             (10000, 10001)]
    f = tmp_path / "g.edges"
    save_edge_list(build_graph(10002, pairs), f)
    assert f.read_text() == "# n=10002\n" + "".join(f"{u} {v}\n" for u, v in pairs)


def load_outcome(path):
    """(n, edge set) of a loaded file, or (error class, line_no, message)."""
    try:
        g = load_edge_list(path)
    except PercolabError as err:
        return type(err), err.line_no, str(err)
    return g.n, edge_set(g)


# The first bad line of each check, with good lines before it that fill
# several small blocks and bad lines of other checks after it.
BOUNDARY_CASES = {
    "header-after-edge": ("0 1\n1 2\n2 3\n# n=9\n3 3\n", ParseError, 4,
                          "header '# n=9' after the first edge"),
    "repeated-header": ("# n=9\n0 1\n\n# n=9\nx\n", ParseError, 4, "repeated header '# n=9'"),
    "shape": ("# n=9\n0 1\n1 2\n3 x\n4 4\n", ParseError, 4, "non-integer vertex id in '3 x'"),
    "too-large": ("0 1\n1 2\n2147483647 3\n4 4\n", ParseError, 3,
                  "vertex id 2147483647 above 2147483646"),
    "self-loop": ("0 1\r\n1 2\r\n3 3\r\n0 1\r\n", NonSimple, 3, "self-loop 3"),
    "duplicate-across-blocks": ("0 1\n1 2\n2 3\n1 0\n4 4\n", NonSimple, 4,
                                "duplicate edge (0, 1)"),
    "duplicate-before-self-loop": ("0 1\n1 2\n1 0\n3 3\n", NonSimple, 3,
                                   "duplicate edge (0, 1)"),
    "outside-n": ("# n=4\n0 1\n1 2\n2 5\n1 0\n", ParseError, 4,
                  "vertex 5 outside declared n=4"),
    # the first repeat in key order, (0, 1) on line 4, is not the first in file order
    "first-repeat-in-file-order": ("3 4\n0 1\n4 3\n1 0\n", NonSimple, 3,
                                   "duplicate edge (3, 4)"),
}


@pytest.mark.parametrize("text,err,line_no,message", BOUNDARY_CASES.values(),
                         ids=BOUNDARY_CASES.keys())
def test_first_bad_line_wins_wherever_the_blocks_are_cut(tmp_path, monkeypatch, text, err,
                                                         line_no, message):
    # every block size up to the whole file puts a cut on, before and after
    # the bad line and between a '\r' and its '\n'
    f = tmp_path / "bad.edges"
    f.write_bytes(text.encode())
    for block in range(1, len(text) + 2):
        monkeypatch.setattr("percolab.graph._LOAD_BLOCK_BYTES", block)
        assert load_outcome(f) == (err, line_no, f"line {line_no}: {message}"), block


# Comment lines are skipped whatever their bytes: a comment is read as bytes,
# and it is a header only when 'n=' follows its '#' after ASCII whitespace;
# the value must be ASCII digits, like an id. Each case is the load's outcome
# (n and edges, or the first bad line's error). b"\xe9" is Latin-1 'é' and
# not UTF-8; an error message shows it as '\ufffd'. b"\xc2\xa0" is a UTF-8
# no-break space, which is not ASCII whitespace.
BYTE_CASES = {
    "latin-1-comments": (b"# caf\xe9\n# n=3\n0 1\n# \xe9t\xe9\n1 2\n", (3, {(0, 1), (1, 2)})),
    "bad-header": (b"# caf\xe9\n# n=\xe9\n0 1\n1 1\n",
                   (ParseError, 2, "line 2: bad header '# n=\ufffd'")),
    "header-after-edge": (b"0 1\n1 2\n# n=\xe9\n3 3\n",
                          (ParseError, 3, "line 3: header '# n=\ufffd' after the first edge")),
    "repeated-header": (b"# n=9\n0 1\n# n=\xe9\nx\n",
                        (ParseError, 3, "line 3: repeated header '# n=\ufffd'")),
    "edge-line": (b"# \xe9\n0 1\n1 \xe9\n2 2\n",
                  (ParseError, 3, "line 3: non-integer vertex id in '1 \ufffd'")),
    "underscore-header": (b"# n=1_0\n0 1\n", (ParseError, 1, "line 1: bad header '# n=1_0'")),
    "signed-header": (b"# n= +4\n0 1\n", (ParseError, 1, "line 1: bad header '# n= +4'")),
    "arabic-indic-header": ("# n=\u0663\n0 1\n".encode(),
                            (ParseError, 1, "line 1: bad header '# n=\u0663'")),
    "no-break-space-comment": (b"#\xc2\xa0n=5\n0 1\n", (2, {(0, 1)})),
    "spaced-header": (b"# n= 4 \n0 1\n", (4, {(0, 1)})),
}


@pytest.mark.parametrize("data,outcome", BYTE_CASES.values(), ids=BYTE_CASES.keys())
def test_comment_bytes_give_one_outcome_wherever_the_blocks_are_cut(tmp_path, monkeypatch, data,
                                                                    outcome):
    f = tmp_path / "bytes.edges"
    f.write_bytes(data)
    for block in range(1, len(data) + 2):
        monkeypatch.setattr("percolab.graph._LOAD_BLOCK_BYTES", block)
        assert load_outcome(f) == outcome, block


def test_cr_only_file_is_cut_at_its_line_ends(tmp_path, monkeypatch):
    # a file with no '\n' is still cut into blocks: at each '\r' that is not
    # the last byte read, so it cannot be the first half of a '\r\n'
    g = generate(GeneratorSpec(kind="gnp", n=60, p=0.1, seed=3))
    save_edge_list(g, tmp_path / "lf.edges")
    text = (tmp_path / "lf.edges").read_bytes()
    (tmp_path / "cr.edges").write_bytes(text.replace(b"\n", b"\r"))
    monkeypatch.setattr("percolab.graph._LOAD_BLOCK_BYTES", 16)
    blocks, real = [], graph._line_blocks

    def recorded(fh):
        for block in real(fh):
            blocks.append(block)
            yield block
    with mock.patch("percolab.graph._line_blocks", recorded):
        h = load_edge_list(tmp_path / "cr.edges")
    assert h.n == g.n and edge_set(h) == edge_set(g)
    assert b"".join(blocks) == text
    longest = max(len(line) for line in text.split(b"\n"))
    assert len(blocks) > 1 and max(map(len, blocks)) <= 16 + longest


def test_load_edge_cap(tmp_path, monkeypatch):
    monkeypatch.setattr("percolab.graph.DEFAULT_EDGE_CAP", 10)
    f = tmp_path / "g.edges"
    f.write_text("# n=7\n0 1\n1 2\n2 3\n")  # 7 + 3 entries
    assert load_edge_list(f).edge_count == 3
    f.write_text("# n=8\n0 1\n1 2\n2 3\n")
    with pytest.raises(ResourceLimit, match=r"n = 8 plus 3 expected edges exceeds cap 10"):
        load_edge_list(f)
    # the edge lines alone pass the cap: refused in the block where they do,
    # before the malformed line that follows is read
    f.write_text("".join(f"0 {v}\n" for v in range(1, 13)) + "x y\n")
    monkeypatch.setattr("percolab.graph._LOAD_BLOCK_BYTES", 8)
    with pytest.raises(ResourceLimit, match=r"^11 edges by line 11 exceed cap 10$"):
        load_edge_list(f)
    monkeypatch.setattr("percolab.graph._LOAD_BLOCK_BYTES", 1 << 18)
    with pytest.raises(ParseError):
        load_edge_list(f)


# --- properties ---


def lexsort_csr(n, eu, ev):
    """Reference CSR build: symmetrize, lexsort, binary-search the offsets."""
    src = np.concatenate([eu, ev])
    dst = np.concatenate([ev, eu])
    order = np.lexsort((dst, src))
    offsets = np.searchsorted(src[order], np.arange(n + 1, dtype=np.int64))
    return offsets.astype(np.int64), dst[order].astype(np.int32)


def pair_arrays(pairs):
    pairs = sorted(pairs)
    return (np.array([u for u, _ in pairs], dtype=np.int64),
            np.array([v for _, v in pairs], dtype=np.int64))


@st.composite
def edge_sets(draw):
    """(n, set of pairs u < v): small n, and n on both sides of 2**16, so
    that ids do not fit in 16 bits and most vertices are isolated."""
    n = draw(st.one_of(st.integers(0, 30), st.sampled_from([65535, 65536, 65537, 70001])))
    if n < 2:
        return n, set()
    ids = st.integers(0, n - 1)
    pairs = draw(st.sets(st.tuples(ids, ids).filter(lambda t: t[0] != t[1])
                         .map(lambda t: (min(t), max(t))), max_size=80))
    return n, pairs


def sorted_adjacency_csr(n, pairs):
    """Reference CSR: each vertex's neighbors in a Python list, sorted."""
    adjacency = {}
    for u, v in pairs:
        adjacency.setdefault(u, []).append(v)
        adjacency.setdefault(v, []).append(u)
    degree = np.zeros(n + 1, dtype=np.int64)
    for v, row in adjacency.items():
        degree[v + 1] = len(row)
    return np.cumsum(degree).tolist(), [w for v in sorted(adjacency) for w in sorted(adjacency[v])]


def widest_keys(n):
    """Pairs on vertices 0, 1, n - 2 and n - 1, whose rows have distinct
    lower parts: the largest sort keys the builder makes for n."""
    return n, {(0, 1), (1, n - 1), (0, n - 1), (n - 2, n - 1)}


# vertices 0, 3, 4, 6, 7 and 9 have no neighbor, and rows 2 and 8 hold lower
# neighbors only: the builder's ranges start and end at empty rows
EMPTY_ROWS = 10, {(1, 2), (1, 5), (5, 8)}


@settings(max_examples=150, deadline=None)
@given(edge_sets(), st.sampled_from([np.int32, np.int64]))
# 65536 is the last n with uint32 keys (up to 2**32 - 2), 65537 the first
# with int64 keys: int32 keys, or uint32 keys past 65536, wrap and misorder.
# The generators' upper ends are uint8 up to n = 256, uint16 up to 65536
# and uint32 beyond; each is built at the n on both sides of its bound.
@example(widest_keys(256), np.uint8)
@example(widest_keys(256), np.uint16)
@example(widest_keys(256), np.int32)
@example(widest_keys(257), np.uint16)
@example(widest_keys(257), np.int64)
@example(widest_keys(65536), np.uint16)
@example(widest_keys(65536), np.uint32)
@example(widest_keys(65536), np.int32)
@example(widest_keys(65536), np.int64)
@example(widest_keys(65537), np.uint32)
@example(widest_keys(65537), np.int32)
@example(widest_keys(65537), np.int64)
@example(EMPTY_ROWS, np.int32)
def test_builder_matches_lexsort_reference(case, dtype):
    """The generators give the builder upper ends of the least unsigned type
    that holds n - 1 and the loader int32 ones; any integer type is built
    alike. Every case is also built in row ranges of 1, 2, 3 and 7 entries;
    at the module's range size every drawn graph is one range."""
    n, pairs = case
    eu, ev = pair_arrays(pairs)
    ev = ev.astype(dtype)
    offsets, neighbors = lexsort_csr(n, eu, ev)
    rows = sorted_adjacency_csr(n, pairs)
    for keys in (graph._CODEGREE_CHUNK_KEYS, 1, 2, 3, 7):
        with mock.patch.object(graph, "_CODEGREE_CHUNK_KEYS", keys):
            g = _from_upper_rows(n, np.bincount(eu, minlength=n), ev)
        assert g.n == n and g.edge_count == len(pairs)
        assert g.offsets.dtype == np.int64 and g.neighbors.dtype == np.int32
        assert np.array_equal(g.offsets, offsets)
        assert np.array_equal(g.neighbors, neighbors)
        assert (g.offsets.tolist(), g.neighbors.tolist()) == rows
        assert not g.offsets.flags.writeable and not g.neighbors.flags.writeable


@st.composite
def graphs_and_rows(draw):
    """A random graph and a row array into it: empty, repeated or unsorted."""
    n, pairs = draw(edge_sets())
    rows = draw(st.lists(st.integers(0, n - 1), max_size=12)) if n else []
    return build_graph(n, pairs), np.array(rows, dtype=np.int64)


@settings(max_examples=100, deadline=None)
@given(graphs_and_rows())
def test_adjacency_rows_is_the_per_row_neighbor_concatenation(case):
    g, rows = case
    i, w = adjacency_rows(g, rows)
    per_row = [g.neighbors_of(int(v)) for v in rows]
    assert np.array_equal(i, np.repeat(np.arange(len(rows)), [len(r) for r in per_row]))
    assert np.array_equal(w, np.concatenate([np.zeros(0, dtype=np.int32), *per_row]))


def test_vertex_set_sorts_dedups_and_range_checks(k4):
    ids = vertex_set(k4, [3, np.int32(1), 3, 0])
    assert ids.dtype == np.int64 and ids.tolist() == [0, 1, 3]
    empty = vertex_set(k4, [])
    assert empty.dtype == np.int64 and empty.tolist() == []
    for bad in (-1, 4, 2 ** 70):
        with pytest.raises(InvalidParameter, match=rf"vertex {bad} not in 0\.\.3"):
            vertex_set(k4, [0, bad])
    # True used to read as vertex 1, and a bool mask as the ids {0, 1}
    for bad in (float("nan"), float("inf"), "x", None, 1.5, 2.9, np.float64(0.5), "3", True,
                np.False_):
        with pytest.raises(InvalidParameter, match="vertices must be integer ids"):
            vertex_set(k4, [0, bad])
    with pytest.raises(InvalidParameter, match="vertices must be integer ids"):
        vertex_set(k4, np.array([True, False, True, False]))
    # a whole-valued float is the integer it equals
    assert vertex_set(k4, [2.0, np.float64(3.0), np.int8(1)]).tolist() == [1, 2, 3]


@st.composite
def id_lists(draw):
    """A host size, an integer dtype and ids that dtype holds: small ones
    around 0..n-1, negatives included where it has them, and its extremes."""
    dtype = np.dtype(draw(st.sampled_from(["int8", "int32", "int64", "uint16", "uint64"])))
    info = np.iinfo(dtype)
    small = st.integers(max(-3, int(info.min)), 40)
    ids = draw(st.lists(st.one_of(small, small, st.sampled_from([int(info.min), int(info.max)])),
                        max_size=30))
    return draw(st.integers(0, 30)), dtype, ids


@settings(max_examples=200, deadline=None)
@given(id_lists())
def test_vertex_set_reads_an_integer_array_as_its_list(case):
    """An integer array is read id by id, as any iterable is: it gives the
    ids, or the refusal, that the same ids in a list give."""
    n, dtype, ids = case
    g = build_graph(n, [])

    def read(vertices):
        try:
            out = vertex_set(g, vertices)
        except InvalidParameter as e:
            return str(e)
        assert out.dtype == np.int64
        return out.tolist()

    assert read(np.array(ids, dtype=dtype)) == read(ids)


PALEY_Q = [q for q in range(5, 400) if q % 4 == 1 and _is_prime(q)]


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(PALEY_Q))
def test_paley_matches_residue_definition(q):
    g = generate(GeneratorSpec(kind="paley", q=q))
    oracle = paley_edges_oracle(q)
    offsets, neighbors = lexsort_csr(q, *pair_arrays(oracle))
    assert g.edge_count == len(oracle) == q * (q - 1) // 4
    assert np.array_equal(g.offsets, offsets)
    assert np.array_equal(g.neighbors, neighbors)


def perturbed_reference(n, p, seed, fraction):
    """One scalar draw and one set toggle per chosen vertex."""
    base = generate(GeneratorSpec(kind="gnp", n=n, p=p, seed=seed))
    codes = {u * n + v for u, v in edge_set(base)}
    rng = derived(seed, 1)
    k = max(1, math.ceil(fraction * n))
    for x in rng.choice(n, size=min(k, n), replace=False).tolist():
        y = int(rng.integers(0, n - 1))
        y += y >= x
        codes ^= {min(x, y) * n + max(x, y)}
    return {(c // n, c % n) for c in codes}


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 120), p=st.floats(0.01, 0.9), seed=st.integers(0, 2 ** 32 - 1),
       fraction=st.sampled_from([0.01, 0.2, 1.0]))
def test_perturbed_matches_toggle_reference(n, p, seed, fraction):
    # fraction 1.0 on small n draws many pairs twice: those keep their state
    with mock.patch("percolab.graph._PERTURB_FRACTION", fraction):
        g = _near_regular_perturbed(n, p, seed)
    assert edge_set(g) == perturbed_reference(n, p, seed, fraction)
    check_invariants(g)


def test_perturbed_pair_codes_do_not_wrap():
    # pair codes u * n + v pass 2**31 once n > 46341; the gnp pairs are int32
    n, p, seed = 70000, 2e-5, 3
    g = _near_regular_perturbed(n, p, seed)
    assert edge_set(g) == perturbed_reference(n, p, seed, 0.01)


def traced_peak(call):
    """call()'s result and the bytes its allocations peaked at above those
    live before it; numpy reports its buffers to tracemalloc."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        result = call()
        return result, tracemalloc.get_traced_memory()[1] - before
    finally:
        if started:
            tracemalloc.stop()


# gnp host (n, p): the bound on its build's peak over its CSR bytes
PEAK_BOUNDS = {(6000, 0.03): 1.5, (50000, 2e-4): 1.9, (70000, 4e-4): 2.8}


@pytest.mark.parametrize("n,p", PEAK_BOUNDS)
def test_generate_peak_memory(n, p):
    """Building the graph peaks below PEAK_BOUNDS times the bytes of its
    own offsets and neighbors. A tiny host is built first: a process's first
    build allocates about 0.66 MB that later builds do not. The builder makes
    and sorts uint32 keys inside `neighbors` up to n = 65536, where the
    sampler's upper ends are uint16: 1.41x on gnp 6000/0.03 and 1.79x on
    50000/2e-4, against 1.66x and 2.01x with int32 upper ends. Beyond 65536
    the keys are a separate int64 array and the ends uint32: 2.67x on
    70000/4e-4, as with int32 ends. Holding every pair's row id beside int64
    keys peaked at 2.9x and 2.8x on the first two, and int64 batches with an
    int64 scatter index at 4.2x and 4.3x (first builds of a process)."""
    generate(GeneratorSpec(kind="gnp", n=10, p=0.5, seed=1))
    g, peak = traced_peak(lambda: generate(GeneratorSpec(kind="gnp", n=n, p=p, seed=1)))
    assert peak < PEAK_BOUNDS[n, p] * (g.offsets.nbytes + g.neighbors.nbytes)


def test_sampled_codegree_scan_peak_memory(monkeypatch):
    """The sampled co-degree scan of a dense host counts wedges over its
    rows' incidences and peaks below 22 bytes per incidence: 18.1 on gnp
    10000/0.05 (413 rows, 212,424 incidences; 13.5 on the trials host
    30000/0.03), a margin of a fifth. Its 413**2 row pairs are fewer than
    its incidences, so the rows are grouped by neighbor with one sort of
    4-byte keys made from the degrees, at 12.6 bytes per incidence, and
    every wedge is counted in one uint16 bin per row pair. The scan keeps
    only the int32 neighbors of its gather (13.0 while it runs). The peak
    is the bins and the keys of one block of groups beside the int32
    neighbors and int32 grouped rows (8.5). Holding the gather's int64 rows
    through int64 bins peaked at 30.9 (25.5); the int64 keys and their
    argsort that grouped them before that at 28. Counting in chunks of
    whole rows, with the int32 index arrays and the int64 running wedge
    count that needs, peaked at 50.1 (41.2); with int64 index arrays at
    68.2."""
    g = generate(GeneratorSpec(kind="gnp", n=10000, p=0.05, seed=1))
    monkeypatch.setattr(graph, "EXACT_CODEGREE_CAP", g.n - 1)
    incidences = int(g.degrees()[graph._sampled_rows(g, 50_000)].sum())
    kernels = []
    wedges = graph._max_codegree_wedges
    monkeypatch.setattr(graph, "_max_codegree_wedges",
                        lambda *args: kernels.append("wedges") or wedges(*args))
    profile, peak = traced_peak(lambda: tightest_profile(g, 0.05))
    assert profile.codegree_mode == "sampled" and kernels == ["wedges"]
    assert peak < 22 * incidences


def test_load_peak_memory(tmp_path):
    """Loading gnp 10000/0.05 (2.5M edges, a 24.5 MB file) peaks at 2.6x
    the CSR bytes: the pairs as int64 keys and int32 block lines, then the
    build. The same lines out of order peak at 2.7x, holding the keys and
    their sorted copy; with a stable argsort beside them they peaked at
    4.6x, and the whole-file scan at 26x. Every order of the lines takes
    the same sort, so the second file shuffles runs of whole lines."""
    f = tmp_path / "g.edges"
    save_edge_list(generate(GeneratorSpec(kind="gnp", n=10000, p=0.05, seed=1)), f)
    text = f.read_bytes()
    cuts = sorted({text.index(b"\n", k) + 1 for k in range(0, len(text), len(text) // 64)})
    runs = [text[a:b] for a, b in zip(cuts, cuts[1:] + [len(text)])]
    random.Random(1).shuffle(runs)
    (tmp_path / "shuffled.edges").write_bytes(text[:cuts[0]] + b"".join(runs))
    del text, runs
    for name in ("g.edges", "shuffled.edges"):
        g, peak = traced_peak(lambda: load_edge_list(tmp_path / name))
        assert peak < 4.0 * (g.offsets.nbytes + g.neighbors.nbytes), name


@pytest.mark.parametrize("n,p", [(2000, 0.1), (10000, 0.05)])
def test_save_peak_memory(tmp_path, n, p):
    """The save holds one row range of neighbor entries and its lines at a
    time, so its peak follows the range size and not the file size: 2.1 MB
    for the 1.8 MB file of gnp 2000/0.1 and 2.4 MB for the 24.5 MB file of
    gnp 10000/0.05, whose first ranges are nearly all upper pairs. Ranges
    of all _CODEGREE_CHUNK_KEYS entries, not an eighth, peaked at 14 and
    19 MB."""
    g = generate(GeneratorSpec(kind="gnp", n=n, p=p, seed=1))
    _, peak = traced_peak(lambda: save_edge_list(g, tmp_path / "g.edges"))
    assert peak < 2.9 * 2**20


@settings(max_examples=60, deadline=None)
@given(edge_sets().filter(lambda case: case[0] <= 30))
def test_save_load_save_is_byte_identical(tmp_path_factory, case):
    n, pairs = case
    g = build_graph(n, pairs)
    d = tmp_path_factory.mktemp("io")
    save_edge_list(g, d / "a.edges")
    h = load_edge_list(d / "a.edges")
    save_edge_list(h, d / "b.edges")
    assert (d / "a.edges").read_bytes() == (d / "b.edges").read_bytes()
    assert (d / "a.edges").read_text() == f"# n={n}\n" + "".join(
        f"{u} {v}\n" for u, v in sorted(edge_set(g)))
    assert h.n == n
    assert np.array_equal(h.offsets, g.offsets) and np.array_equal(h.neighbors, g.neighbors)


def read_reference(text):
    """Line-at-a-time reading of the format load_edge_list documents: returns
    (n, edge set) for a valid file, else (error class, line number)."""
    declared, seen, max_id, edge_seen = None, set(), -1, False
    for no, line in enumerate(text.replace("\r\n", "\n").replace("\r", "\n").split("\n"), 1):
        parts = line.encode().split()
        if not parts:
            continue
        if parts[0].startswith(b"#"):
            body = line.strip()[1:].strip()
            if body.startswith("n="):
                if declared is not None or edge_seen:
                    return ParseError, no
                try:
                    declared = int(body[2:])
                except ValueError:
                    return ParseError, no
                if not 0 <= declared < 2 ** 31:
                    return ParseError, no
            continue
        edge_seen = True
        if len(parts) != 2 or not all(part.isdigit() for part in parts):
            return ParseError, no
        u, v = int(parts[0]), int(parts[1])
        if max(u, v) >= 2 ** 31 - 1:
            return ParseError, no
        if u == v:
            return NonSimple, no
        key = (min(u, v), max(u, v))
        if key in seen:
            return NonSimple, no
        seen.add(key)
        if declared is not None and key[1] >= declared:
            return ParseError, no
        max_id = max(max_id, key[1])
    return (declared if declared is not None else max_id + 1), seen


# Ids stay small (or are rejected as too large) so no accepted file asks
# for a big n. Well-formed edge lines are drawn most often, so that many
# files load and the error cases sit at varying depths.
GOOD_LINES = st.tuples(st.integers(0, 40), st.sampled_from([" ", "  ", "\t", "\x0b", "\x0c"]),
                       st.integers(0, 40), st.sampled_from(["", " ", "\t"])).map(
    lambda t: f"{t[0]}{t[1]}{t[2]}{t[3]}")
TOKENS = st.one_of(
    st.integers(0, 12).map(str),
    st.sampled_from(["-1", "007", "+3", "1_0", "1.5", "0x1", "x", "\u0663", "#", "n=3",
                     "2147483647", "9" * 19, "\x00", "\xe9"]),
)
ODD_LINES = st.one_of(
    st.lists(TOKENS, min_size=1, max_size=3).flatmap(
        lambda toks: st.sampled_from([" ", "\t", "\x1c", "\xa0"]).map(lambda sep: sep.join(toks))),
    st.integers(-2, 14).map(lambda k: f"# n={k}"),
    st.sampled_from(["", "   ", "# comment", " # n=4", "#n=x", "# n=99999999999", "# caf\xe9"]),
    st.text(st.characters(blacklist_categories=("Cs", "Nd")), max_size=6),
)
LINES = st.integers(0, 9).flatmap(lambda i: ODD_LINES if i == 0 else GOOD_LINES)


FILES = st.lists(st.tuples(LINES, st.sampled_from(["\n", "\r\n", "\r"])), max_size=12)


@settings(max_examples=400, deadline=None)
@given(FILES)
def test_fuzzed_edge_list_matches_line_reader(tmp_path_factory, lines):
    check_against_line_reader(tmp_path_factory, lines)


@settings(max_examples=400, deadline=None)
@given(FILES, st.integers(1, 8))
def test_fuzzed_edge_list_in_small_blocks_matches_line_reader(tmp_path_factory, lines, block):
    # blocks of a few bytes cut on every line, and between the '\r' and '\n'
    # of a '\r\n' that a read splits
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("percolab.graph._LOAD_BLOCK_BYTES", block)
        check_against_line_reader(tmp_path_factory, lines)


def check_against_line_reader(tmp_path_factory, lines):
    text = "".join(line + end for line, end in lines)
    f = tmp_path_factory.mktemp("fuzz") / "g.edges"
    f.write_bytes(text.encode("utf-8"))
    want = read_reference(text)
    try:
        g = load_edge_list(f)
    except PercolabError as err:
        assert (type(err), err.line_no) == want
        return
    assert (g.n, edge_set(g)) == want
    assert g.offsets[0] == 0 and (np.diff(g.offsets) >= 0).all()
    assert g.offsets[-1] == len(g.neighbors) == 2 * g.edge_count
    check_invariants(g)
