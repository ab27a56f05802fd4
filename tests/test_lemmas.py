"""Lemma checkers: hand-computable cases, naive-oracle agreement, gating."""

import collections
import itertools
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import build_graph, complete_graph, cycle_graph, path_graph, star_graph
from percolab import (
    GeneratorSpec,
    PseudoRandomProfile,
    certify,
    co_degree,
    estimate_slacks,
    expansion_check,
    generate,
    inclusion_exclusion_check,
    inclusion_exclusion_lower_bound,
    neighborhood_size,
    oracle_components,
    outer_complement_check,
    variance_bound_check,
    xi_count_check,
)
from percolab.errors import InvalidParameter, NotCertified
from percolab.graph import _DENSE_TILE_BYTES
from percolab.lemmas import (
    LEMMA_IDS,
    _bfs,
    _expansion_scan_all,
    _expansion_scan_sampled,
    _is_connected_induced,
    _neighborhood_sizes,
    grow_connected_set,
)
from percolab.rng import derived


def certified(g, p):
    a, b = estimate_slacks(g, p)
    prof = certify(g, p, a, b)
    assert prof.a1 and prof.a2 and prof.a3
    return prof


def forced_profile(g, p, a_n, b_n):
    """Hand-assembled profile with all verdicts asserted true, for exercising
    bound arithmetic and witness paths that certified profiles rule out."""
    deg = g.degrees()
    return PseudoRandomProfile(
        n=g.n, p=p, a_n=a_n, b_n=b_n,
        min_degree=int(deg.min()), max_degree=int(deg.max()),
        max_codegree=0, codegree_mode="exact", a1=True, a2=True, a3=True)


def nbhd_oracle(g, H):
    out = set()
    for v in H:
        out.update(int(w) for w in g.neighbors_of(int(v)))
    return len(out - set(int(v) for v in H))


# --- inclusion-exclusion ---


def test_inclusion_exclusion_triangle(triangle):
    # degrees 2+2, one shared neighbor, |H| = 2: bound 4 - 1 - 2 = 1 = exact
    assert inclusion_exclusion_lower_bound(triangle, [0, 1]) == 1
    assert neighborhood_size(triangle, [0, 1]) == 1


def test_inclusion_exclusion_k4(k4):
    assert inclusion_exclusion_lower_bound(k4, [0, 1, 2]) == 0
    assert neighborhood_size(k4, [0, 1, 2]) == 1


def test_inclusion_exclusion_empty(k4):
    with pytest.raises(InvalidParameter, match="H must be nonempty"):
        inclusion_exclusion_lower_bound(k4, [])


@pytest.mark.parametrize("g", [
    star_graph(20), path_graph(20), cycle_graph(16), complete_graph(12),
    generate(GeneratorSpec(kind="gnp", n=30, p=0.2, seed=0)),
])
def test_inclusion_exclusion_is_a_lower_bound_exhaustive(g):
    for m in (1, 2, 3):
        for H in itertools.combinations(range(g.n), m):
            assert inclusion_exclusion_lower_bound(g, H) <= nbhd_oracle(g, H)


def test_inclusion_exclusion_random_sets():
    g = generate(GeneratorSpec(kind="gnp", n=300, p=0.05, seed=17))
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(17)))
    for _ in range(200):
        m = int(rng.integers(1, 6))
        H = rng.choice(300, size=m, replace=False).tolist()
        assert inclusion_exclusion_lower_bound(g, H) <= nbhd_oracle(g, H)


def pairwise_bound(g, H):
    """The inclusion-exclusion bound by its definition: the degrees of H
    minus the co-degree of every pair of H, minus |H|."""
    hs = sorted(set(H))
    return (sum(g.degree(v) for v in hs) - len(hs)
            - sum(co_degree(g, u, v) for u, v in itertools.combinations(hs, 2)))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 40), st.sampled_from([0.05, 0.2, 0.6, 0.9]),
       st.integers(0, 2 ** 32 - 1), st.data())
def test_inclusion_exclusion_equals_the_pairwise_sum(n, p, seed, data):
    g = generate(GeneratorSpec(kind="gnp", n=n, p=p, seed=seed))
    H = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n + 3))
    assert inclusion_exclusion_lower_bound(g, H) == pairwise_bound(g, H)


# --- expansion ---


def test_expansion_precondition_window():
    prof = certified(complete_graph(10), 1.0)
    with pytest.raises(InvalidParameter, match=r"need c < m\*p <= 1/3, got m\*p = 1"):
        expansion_check(complete_graph(10), prof, m=1, alpha0=0.5)  # m*p = 1
    g = generate(GeneratorSpec(kind="gnp", n=100, p=0.1, seed=0))
    prof = certified(g, 0.1)
    with pytest.raises(InvalidParameter, match=r"c must be in \(0, 1/3\), got 0\.4"):
        expansion_check(g, prof, m=2, alpha0=0.5, c=0.4)  # c outside (0, 1/3)
    with pytest.raises(InvalidParameter, match=r"need c < m\*p <= 1/3, got m\*p = 0\.2"):
        expansion_check(g, prof, m=2, alpha0=0.5, c=0.3)  # m*p = 0.2 <= c


def test_expansion_star_leaf_pair_witness():
    """Two leaves of a star see only the hub: the poorest expander there is."""
    g = star_graph(200)
    prof = certify(g, 0.1, *estimate_slacks(g, 0.1))
    rep = expansion_check(g, prof, m=2, alpha0=0.5)
    assert not rep.passed
    assert rep.bound == 18.0  # 0.5 * (200*0.1*2 - 200*0.01*4/2)
    assert rep.measured == 1
    w = rep.witness
    assert w["neighborhood_size"] == 1 and w["bound"] == 18.0
    assert 0 not in w["H"]  # a pair of leaves, not the hub
    assert neighborhood_size(g, w["H"]) == 1  # witness replays


def test_expansion_gnp_passes():
    g = generate(GeneratorSpec(kind="gnp", n=200, p=0.1, seed=4))
    prof = certified(g, 0.1)
    rep2 = expansion_check(g, prof, m=2, alpha0=0.5)
    assert rep2.passed and rep2.measured == 21 and rep2.bound == 18.0
    assert rep2.checked_count == math.comb(200, 2)
    rep3 = expansion_check(g, prof, m=3, alpha0=0.5)
    assert rep3.passed and rep3.measured == 30 and rep3.bound == 25.5


@pytest.mark.parametrize("n,p,seed", [(50, 0.1, 1), (40, 0.11, 2)])
@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_expansion_worst_set_matches_naive(n, p, seed, m):
    g = generate(GeneratorSpec(kind="gnp", n=n, p=p, seed=seed))
    # the scan does not read the profile; its density only has to meet m*p <= 1/3
    prof = certified(g, min(p, 1 / (3 * m)))
    rep = expansion_check(g, prof, m=m, alpha0=0.9)
    worst = min(nbhd_oracle(g, H) for H in itertools.combinations(range(n), m))
    assert rep.measured == worst


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 40), st.sets(st.tuples(st.integers(0, 39), st.integers(0, 39)), max_size=120))
def test_expansion_scan_at_m1_is_the_first_minimum_degree(n, pairs):
    # m = 1 reads the degrees instead of an n x n matrix
    g = build_graph(n, {(min(e), max(e)) for e in pairs if e[0] != e[1] and max(e) < n})
    sizes = [nbhd_oracle(g, [v]) for v in range(n)]
    assert _expansion_scan_all(g, 1) == (min(sizes), (sizes.index(min(sizes)),))


def naive_scan(g, m):
    """min |N(H)| over all m-sets and the first H in lexicographic order
    attaining it (min keeps the first of equal keys)."""
    H = min(itertools.combinations(range(g.n), m), key=lambda H: nbhd_oracle(g, H))
    return nbhd_oracle(g, H), H


@st.composite
def small_graphs(draw):
    n = draw(st.integers(1, 9))
    pairs = draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                         .filter(lambda e: e[0] != e[1]).map(lambda e: (min(e), max(e)))))
    return build_graph(n, pairs)


@settings(max_examples=150, deadline=None)
@given(small_graphs(), st.one_of(st.none(), st.integers(1, 6)))
def test_expansion_scan_equals_the_naive_first_minimiser(g, rows):
    # rows per block: one block by default, or many short ones, so that a
    # later block ties or beats an earlier one
    block = _DENSE_TILE_BYTES if rows is None else 8 * g.n * rows
    with mock.patch("percolab.lemmas._DENSE_TILE_BYTES", block):
        for m in range(1, min(4, g.n) + 1):
            assert _expansion_scan_all(g, m) == naive_scan(g, m)


@pytest.mark.parametrize("n", [1, 2, 5, 9])
def test_expansion_scan_hand_cases(n):
    edgeless, complete, star = build_graph(n, []), complete_graph(n), star_graph(n)
    for m in range(1, n + 1):  # up to m = n, where every graph gives (0, all)
        first = tuple(range(m))
        assert _expansion_scan_all(edgeless, m) == (0, first)
        # every m-set of K_n sees the other n - m vertices
        assert _expansion_scan_all(complete, m) == (n - m, first)
        # m leaves see only the hub; a set with the hub sees the other leaves
        want = (1, tuple(range(1, m + 1))) if 1 < n - m else (n - m, first)
        assert _expansion_scan_all(star, m) == want == naive_scan(star, m)


@pytest.mark.parametrize("n,p,m", [(1500, 0.01, 2), (200, 0.1, 3)])
def test_expansion_scan_peak_memory(n, p, m):
    """The m >= 2 scan holds the float32 adjacency matrix (4 n^2 bytes) and
    one block, U and its product, of at most _DENSE_TILE_BYTES: it peaks 1.2
    budgets over the matrix on both hosts here. A block of 4096 sets would
    hold a 24 MB U at n = 1500."""
    g = generate(GeneratorSpec(kind="gnp", n=n, p=p, seed=1))
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        _expansion_scan_all(g, m)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if started:
            tracemalloc.stop()
    assert peak <= 4 * n * n + 2 * _DENSE_TILE_BYTES


def test_expansion_set_cap(monkeypatch):
    """The scan is exhaustive exactly when C(n, m) <= EXHAUSTIVE_SET_CAP, and
    the report carries that scan's result. Above the cap it samples instead
    of refusing the instance."""
    g = generate(GeneratorSpec(kind="gnp", n=60, p=0.1, seed=3))
    prof = certified(g, 0.1)
    monkeypatch.setattr("percolab.lemmas.EXPANSION_SAMPLES", 200)
    for m in (1, 2, 3):
        total = math.comb(60, m)
        for cap in (total - 1, total, total + 1):
            monkeypatch.setattr("percolab.lemmas.EXHAUSTIVE_SET_CAP", cap)
            rep = expansion_check(g, prof, m=m, alpha0=0.95)
            if total <= cap:
                mode, checked, (worst, H) = "exhaustive", total, _expansion_scan_all(g, m)
            else:
                mode, checked, (worst, H) = "sampled", 201, _expansion_scan_sampled(g, m, 200)
            assert rep.parameters["mode"] == mode
            assert (rep.checked_count, rep.measured) == (checked, worst)
            assert rep.witness is None if rep.passed else rep.witness["H"] == list(H)
    star = star_graph(60)
    sprof = certify(star, 0.1, *estimate_slacks(star, 0.1))
    for cap, scan in ((math.comb(60, 3), _expansion_scan_all(star, 3)),
                      (0, _expansion_scan_sampled(star, 3, 200))):
        monkeypatch.setattr("percolab.lemmas.EXHAUSTIVE_SET_CAP", cap)
        rep = expansion_check(star, sprof, m=3, alpha0=0.5)
        assert not rep.passed and (rep.measured, tuple(rep.witness["H"])) == scan


def test_expansion_sampled_mode_is_a_lower_scan(monkeypatch):
    g = generate(GeneratorSpec(kind="gnp", n=300, p=0.05, seed=2))
    prof = certified(g, 0.05)
    full = expansion_check(g, prof, m=2, alpha0=0.9)
    assert full.parameters["mode"] == "exhaustive"
    monkeypatch.setattr("percolab.lemmas.EXPANSION_SAMPLES", 300)
    monkeypatch.setattr("percolab.lemmas.EXHAUSTIVE_SET_CAP", math.comb(300, 2) - 1)
    sampled = expansion_check(g, prof, m=2, alpha0=0.9)
    assert sampled.parameters["mode"] == "sampled"
    assert sampled.checked_count == 301
    assert sampled.measured >= full.measured  # sampling can only miss minima


@pytest.mark.parametrize("mode", ["exhaustive", "sampled"])
@pytest.mark.parametrize("m", [0, 6, 10, 2.0, True])
def test_expansion_m_outside_1_to_n_is_rejected(mode, m, monkeypatch):
    # exhaustive mode used to prove the bound over the C(5, 10) = 0 sets and
    # to scan m = True as m = 1; m = 2.0 raised TypeError. A cap of 0 sends
    # every m to the sampled scan
    if mode == "sampled":
        monkeypatch.setattr("percolab.lemmas.EXHAUSTIVE_SET_CAP", 0)
    g = generate(GeneratorSpec(kind="gnp", n=5, p=0.01, seed=1))
    prof = forced_profile(g, 0.01, 1.0, 1.0)
    with pytest.raises(InvalidParameter):
        expansion_check(g, prof, m=m, alpha0=0.5)


def test_sampled_expansion_greedy_set_leaves_a_small_component(monkeypatch):
    # the greedy set starts at vertex 0, whose component {0, 1} is smaller
    # than m = 3; it used to append vertex -1 once H held its neighborhood
    g = build_graph(6, [(0, 1), (2, 3), (3, 4), (4, 5), (2, 5), (2, 4)])
    worst, H = _expansion_scan_sampled(g, 3, 0)
    assert len(set(H)) == 3 and all(0 <= v < 6 for v in H)
    assert worst == nbhd_oracle(g, H) == 2
    monkeypatch.setattr("percolab.lemmas.EXPANSION_SAMPLES", 50)
    monkeypatch.setattr("percolab.lemmas.EXHAUSTIVE_SET_CAP", 0)
    rep = expansion_check(g, forced_profile(g, 0.05, 1.0, 1.0), m=3, alpha0=0.5)
    assert rep.parameters["mode"] == "sampled" and rep.checked_count == 51
    assert rep.measured == min(nbhd_oracle(g, S) for S in itertools.combinations(range(6), 3))


# --- vertex sets ---


@pytest.mark.parametrize("bad", [-1, 40])
@pytest.mark.parametrize("check", [
    lambda g, prof, vs: oracle_components(g, vs),
    lambda g, prof, vs: variance_bound_check(g, vs, prof),
    lambda g, prof, vs: xi_count_check(g, vs, prof, alpha=0.5),
    lambda g, prof, vs: outer_complement_check(g, vs, prof, epsilon=0.5),
], ids=["oracle", "variance", "xi", "outer"])
def test_vertex_ids_outside_0_to_n_are_rejected(check, bad):
    # variance and xi used to read id -1 as n-1 and raise IndexError at n
    g = complete_graph(40)
    prof = certify(g, 1.0, a_n=2.0, b_n=3.0)
    with pytest.raises(InvalidParameter, match=rf"vertex {bad} not in 0\.\.39"):
        check(g, prof, [*range(30), bad])


# --- variance ---


def test_variance_k40_hand_numbers():
    g = complete_graph(40)
    prof = certify(g, 1.0, a_n=2.0, b_n=3.0)
    assert (prof.a1, prof.a2, prof.a3) == (True, True, True)
    rep = variance_bound_check(g, range(40), prof)
    assert rep.passed
    assert rep.measured == 0.0  # d(X, V) = 39 for every X
    assert rep.bound == 119.0   # 0 - 1 + 120 + 4 - 4
    assert rep.parameters["remark_bound"] == 440.0
    assert rep.parameters["remark_passed"] is True


def test_variance_empty_u(k4):
    prof = certify(k4, 1.0, a_n=2.0, b_n=1.0)
    rep = variance_bound_check(k4, [], prof)
    assert rep.passed and rep.measured == 0.0 and rep.bound == 0.0
    assert rep.parameters["remark_bound"] is None


def test_variance_matches_two_pass():
    g = generate(GeneratorSpec(kind="gnp", n=500, p=0.05, seed=13))
    prof = certified(g, 0.05)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(99)))
    for _ in range(10):
        u = rng.choice(500, size=int(rng.integers(100, 500)), replace=False)
        rep = variance_bound_check(g, u.tolist(), prof)
        us = set(u.tolist())
        d = [sum(int(w) in us for w in g.neighbors_of(v).tolist()) for v in range(500)]
        mean = sum(d) / 500
        two_pass = sum((x - mean) ** 2 for x in d) / 500
        assert rep.measured == pytest.approx(two_pass, rel=1e-9)
        assert rep.passed  # certified tight profile: the bound is a theorem


def test_variance_requires_certification(monkeypatch):
    g = star_graph(5)
    bad = certify(g, 0.5, a_n=1.0, b_n=3.0)  # a1 and a3 false
    with pytest.raises(NotCertified):
        variance_bound_check(g, [1, 2], bad)
    monkeypatch.setattr("percolab.graph.EXACT_CODEGREE_CAP", 10)
    refuted = certify(star_graph(50), 0.5, a_n=30.0, b_n=-12.0)
    assert refuted.a2 is False
    with pytest.raises(NotCertified):
        variance_bound_check(star_graph(50), [1, 2], refuted)


def test_variance_accepts_sampled_undecided_a2(monkeypatch):
    monkeypatch.setattr("percolab.graph.EXACT_CODEGREE_CAP", 10)
    g = star_graph(50)
    prof = certify(g, 0.5, a_n=30.0, b_n=10.0)
    assert prof.a2 is None
    rep = variance_bound_check(g, range(25), prof)
    assert rep.parameters["codegree_mode"] == "sampled"


def test_variance_witness_on_forced_profile():
    # negative b_n sends the bound below zero while the variance stays put
    g = generate(GeneratorSpec(kind="gnp", n=200, p=0.1, seed=4))
    prof = forced_profile(g, 0.1, a_n=0.0, b_n=-1000.0)
    rep = variance_bound_check(g, range(100), prof)
    assert not rep.passed and rep.bound < 0
    assert rep.witness["u_size"] == 100
    assert rep.witness["variance"] == rep.measured > 0


# --- xi count ---


def test_xi_k40_hand_numbers():
    g = complete_graph(40)
    prof = certify(g, 1.0, a_n=1.5, b_n=0.0)
    assert (prof.a1, prof.a2, prof.a3) == (True, True, True)
    rep = xi_count_check(g, range(40), prof, alpha=0.1)
    assert rep.passed
    assert rep.measured == 0      # threshold 44 exceeds every degree
    assert rep.bound == pytest.approx(1600.0)  # 4/(0.1)^2 * 4
    assert rep.parameters["threshold"] == pytest.approx(44.0)


def test_xi_validation():
    g = complete_graph(40)
    prof = certify(g, 1.0, a_n=1.5, b_n=0.0)
    with pytest.raises(InvalidParameter, match=r"\|U\| = 10 < n/2 = 20\.0"):
        xi_count_check(g, range(10), prof, alpha=0.1)
    loose = certify(g, 1.0, a_n=5.0, b_n=0.0)
    assert (loose.a1, loose.a2, loose.a3) == (True, True, True)
    with pytest.raises(NotCertified, match=r"a_n = 5\.0 > alpha\*p\*n/2 = 2\.0"):
        xi_count_check(g, range(40), loose, alpha=0.1)  # 5 > 0.1*40/2


def test_xi_counts_match_naive():
    g = generate(GeneratorSpec(kind="gnp", n=500, p=0.05, seed=13))
    prof = forced_profile(g, 0.05, a_n=1.0, b_n=5.0)
    u = list(range(100, 500))
    rep = xi_count_check(g, u, prof, alpha=0.2)
    us = set(u)
    thr = 1.2 * 0.05 * len(u)
    naive = sum(
        sum(int(w) in us for w in g.neighbors_of(v).tolist()) >= thr
        for v in range(500))
    assert rep.measured == naive > 0
    assert rep.passed


def test_xi_witness_on_forced_profile():
    g = generate(GeneratorSpec(kind="gnp", n=500, p=0.05, seed=13))
    prof = forced_profile(g, 0.05, a_n=1.0, b_n=-0.02)
    rep = xi_count_check(g, range(500), prof, alpha=0.4)
    assert not rep.passed and rep.bound < 0
    assert rep.measured > 0
    verts = rep.witness["vertices"]
    assert 0 < len(verts) <= 10
    thr = rep.parameters["threshold"]
    for v in verts:  # witness replays against raw adjacency
        assert g.degree(v) >= thr


# --- outer complement ---


def test_outer_complete_graph_is_trivial():
    g = complete_graph(20)
    prof = certified(g, 0.5)
    rep = outer_complement_check(g, [0], prof, epsilon=0.5)
    assert rep.passed and rep.measured == 0
    assert rep.parameters["neighborhood_size"] == 19


def test_outer_path_hand_numbers(path5):
    prof = certified(path5, 0.5)
    rep = outer_complement_check(path5, [0], prof, epsilon=0.5)
    assert rep.measured == 3  # vertices 2, 3, 4
    assert rep.bound == pytest.approx(3.75, rel=1e-9)
    assert rep.passed
    assert rep.parameters["l_n"] == pytest.approx(0.25, rel=1e-9)
    assert rep.parameters["bound_statement"] == pytest.approx(4.375, rel=1e-9)
    assert rep.parameters["statement_passed"] is True


def test_outer_cycle_fails_both_versions():
    """A long cycle barely expands: the outer set dwarfs the bound."""
    g = cycle_graph(60)
    prof = certified(g, 0.1)
    c = grow_connected_set(g, 0, 3)
    assert c == [0, 1, 59]
    rep = outer_complement_check(g, c, prof, epsilon=0.3)
    assert rep.measured == 55
    assert rep.bound == pytest.approx(47.7, rel=1e-6)
    assert not rep.passed
    assert rep.parameters["statement_passed"] is False
    assert rep.parameters["bound_statement"] == pytest.approx(50.4, rel=1e-6)
    w = rep.witness
    assert w["outer_size"] == 55 and w["C"] == [0, 1, 59]
    assert g.n - neighborhood_size(g, w["C"]) - len(w["C"]) == 55


def test_outer_validation(path5):
    prof = certified(path5, 0.5)
    with pytest.raises(InvalidParameter, match="C must be nonempty"):
        outer_complement_check(path5, [], prof, epsilon=0.5)
    with pytest.raises(InvalidParameter, match="C does not induce a connected subgraph"):
        outer_complement_check(path5, [0, 2], prof, epsilon=0.5)
    with pytest.raises(InvalidParameter, match=r"\|C\| = 3, need ceil\(eps/p\) = 1 \(\+/- 1\)"):
        outer_complement_check(path5, [0, 1, 2], prof, epsilon=0.5)
    # one vertex of rounding slack is tolerated
    rep = outer_complement_check(path5, [0, 1], prof, epsilon=0.5)
    assert rep.measured == 2


def test_outer_requires_a1_a2_only():
    # a3 false must not block the outer check (it needs A1 + A2)
    g = star_graph(10)
    prof = certify(g, 0.3, a_n=4.0, b_n=1.0)
    assert (prof.a1, prof.a2, prof.a3) == (True, True, False)
    rep = outer_complement_check(g, [0], prof, epsilon=0.3)
    assert rep.measured == 0  # the hub dominates everything


# --- helpers around the lemmas ---


def test_grow_connected_set(path5):
    assert grow_connected_set(path5, 0, 3) == [0, 1, 2]
    assert grow_connected_set(path5, 2, 1) == [2]
    assert grow_connected_set(path5, 0, 3, within=[0, 1, 2]) == [0, 1, 2]
    with pytest.raises(InvalidParameter, match="only 5 vertices reachable, need 6"):
        grow_connected_set(path5, 0, 6)
    with pytest.raises(InvalidParameter, match="only 1 vertices reachable, need 3"):
        grow_connected_set(path5, 0, 3, within=[0, 2, 3])  # 0 is isolated there
    with pytest.raises(InvalidParameter, match="root 0 not in the confining set"):
        grow_connected_set(path5, 0, 2, within=[1, 2])
    # the confining set is read like every vertex-id set
    with pytest.raises(InvalidParameter, match=r"vertex 7 not in 0\.\.4"):
        grow_connected_set(path5, 0, 2, within=[0, 1, 7])
    with pytest.raises(InvalidParameter, match="vertices must be integer ids"):
        grow_connected_set(path5, 0, 2, within=[0, 1.5])
    two = build_graph(6, [(0, 1), (2, 3), (3, 4), (4, 5)])
    with pytest.raises(InvalidParameter, match="only 2 vertices reachable, need 3"):
        grow_connected_set(two, 0, 3)


@pytest.mark.parametrize("size, message", [
    (0, "size must be >= 1, got 0"), (-5, "size must be >= 1, got -5"),
    (2.5, "size must be an integer, got 2.5"),
], ids=["0", "-5", "2.5"])
def test_grow_connected_set_needs_a_positive_size(size, message):
    # a size below 1 used to return [root], and 2.5 raised TypeError
    g = generate(GeneratorSpec(kind="gnp", n=50, p=0.1, seed=1))
    with pytest.raises(InvalidParameter, match=message):
        grow_connected_set(g, 0, size)


def bfs_order(g, root, allowed):
    order, seen, queue = [], {root}, collections.deque([root])
    while queue:
        v = queue.popleft()
        order.append(v)
        for w in g.neighbors_of(v).tolist():
            if w not in seen and w in allowed:
                seen.add(w)
                queue.append(w)
    return order


@pytest.mark.parametrize("seed", range(4))
def test_bfs_helpers_match_a_queue_bfs(seed):
    g = generate(GeneratorSpec(kind="gnp", n=60, p=0.05, seed=seed))
    rng = np.random.default_rng(seed)
    everyone = set(range(g.n))
    for root in range(0, g.n, 7):
        order = bfs_order(g, root, everyone)
        for size in {1, len(order) // 2 + 1, len(order)}:
            assert grow_connected_set(g, root, size) == sorted(order[:size])
        with pytest.raises(InvalidParameter,
                           match=f"only {len(order)} vertices reachable, need {len(order) + 1}"):
            grow_connected_set(g, root, len(order) + 1)
        within = sorted({root} | set(rng.choice(g.n, 30, replace=False).tolist()))
        confined = bfs_order(g, root, set(within))
        assert grow_connected_set(g, root, len(confined), within=within) == sorted(confined)
        assert _is_connected_induced(g, within) == (len(confined) == len(within))
        assert _is_connected_induced(g, sorted(order))


def loop_bfs(g, root, allowed, limit):
    """The first `limit` vertices in BFS order from root, entering only
    vertices in the set `allowed` (any vertex when None), one neighbor at a
    time: the reference for lemmas._bfs."""
    order, seen = [root], {root}
    for v in order:
        for w in g.neighbors_of(v).tolist():
            if len(order) >= limit:
                return order
            if w not in seen and (allowed is None or w in allowed):
                seen.add(w)
                order.append(w)
    return order


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 30), st.sampled_from([0.05, 0.15, 0.4]), st.integers(0, 2 ** 32 - 1),
       st.data())
def test_bfs_equals_the_one_neighbor_loop(n, p, seed, data):
    g = generate(GeneratorSpec(kind="gnp", n=n, p=p, seed=seed))
    root = data.draw(st.integers(0, n - 1))
    within = data.draw(st.one_of(st.none(), st.sets(st.integers(0, n - 1)).map(
        lambda s: sorted(s | {root}))))
    limit = data.draw(st.integers(1, n + 1))
    allowed = None if within is None else set(within)
    assert _bfs(g, root, within, limit) == loop_bfs(g, root, allowed, limit)


def loop_sampled_scan(g, m, samples):
    """One neighborhood_size call per random set: the reference for the
    blocked evaluation of lemmas._expansion_scan_sampled's random sets."""
    worst, witness = g.n + 1, ()
    for k in range(samples):
        H = derived(0, k).choice(g.n, size=m, replace=False)
        size = neighborhood_size(g, H)
        if size < worst:
            worst, witness = size, tuple(int(v) for v in H)
    return worst, witness


@settings(max_examples=100, deadline=None)
@given(small_graphs(), st.integers(0, 40), st.one_of(st.none(), st.integers(1, 5)), st.data())
def test_sampled_scan_blocks_equal_one_call_per_set(g, samples, rows, data):
    # rows per block: one block by default, or many short ones, so that a
    # later block ties or beats an earlier one
    m = data.draw(st.integers(1, g.n))
    block = _DENSE_TILE_BYTES if rows is None else g.n * rows
    # with no random set the greedy set alone decides
    greedy = _expansion_scan_sampled(g, m, 0)
    want = min(loop_sampled_scan(g, m, samples), greedy, key=lambda r: r[0])
    with mock.patch("percolab.lemmas._DENSE_TILE_BYTES", block):
        assert _expansion_scan_sampled(g, m, samples) == want


@settings(max_examples=200, deadline=None)
@given(small_graphs(), st.data())
def test_neighborhood_rows_equal_a_naive_union(g, data):
    # rows of one width m, from the empty set to all n vertices; a row may
    # repeat an earlier one, and neighborhood_size is the one-row case
    m = data.draw(st.integers(0, g.n))
    sets = data.draw(st.lists(st.permutations(range(g.n)).map(lambda v: v[:m]), min_size=1,
                              max_size=6))
    sets += data.draw(st.lists(st.sampled_from(sets), max_size=3))
    H = np.array(sets, dtype=np.int64).reshape(len(sets), m)
    want = [nbhd_oracle(g, row) for row in sets]
    assert _neighborhood_sizes(g, H).tolist() == want
    assert [neighborhood_size(g, row) for row in sets] == want


@pytest.mark.parametrize("root,message", [
    (50, r"vertex 50 not in 0\.\.49"), (-1, r"vertex -1 not in 0\.\.49"),
    (2.5, "vertices must be integer ids"),
], ids=["50", "-1", "2.5"])
def test_grow_connected_set_reads_root_as_a_vertex_id(root, message):
    # 50 used to raise a bare IndexError, and 2.5 grew from vertex 2
    g = generate(GeneratorSpec(kind="gnp", n=50, p=0.1, seed=1))
    with pytest.raises(InvalidParameter, match=message):
        grow_connected_set(g, root, 3)
    assert grow_connected_set(g, 2.0, 3) == grow_connected_set(g, 2, 3)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(st.integers(-3, 12), st.floats(), st.sampled_from([2.0, 7.0]),
                          st.text(max_size=2), st.none()), max_size=5))
def test_neighborhood_size_raises_only_percolab_errors(H):
    # a non-integral id used to raise a bare IndexError, and 1.5 read as 1
    g = generate(GeneratorSpec(kind="gnp", n=10, p=0.3, seed=2))
    whole = all(isinstance(v, int) or (isinstance(v, float) and v.is_integer()) for v in H)
    if whole and all(0 <= v < 10 for v in H):
        assert neighborhood_size(g, H) == nbhd_oracle(g, {int(v) for v in H})
    else:
        with pytest.raises(InvalidParameter):
            neighborhood_size(g, H)


def test_inclusion_exclusion_check(k4):
    rep = inclusion_exclusion_check(k4, [0, 1])
    assert (rep.lemma_id, rep.passed, rep.checked_count, rep.witness) == (
        "inclusion_exclusion", True, 1, None)
    assert (rep.measured, rep.bound, rep.parameters) == (2, 2, {"H": [0, 1]})
    g = generate(GeneratorSpec(kind="gnp", n=80, p=0.2, seed=2))
    H = [3, 17, 40, 41]
    rep = inclusion_exclusion_check(g, H)
    assert rep.bound == inclusion_exclusion_lower_bound(g, H) <= rep.measured
    assert rep.measured == neighborhood_size(g, H) and rep.passed


def test_inclusion_exclusion_reads_h_as_a_vertex_set():
    g = generate(GeneratorSpec(kind="gnp", n=50, p=0.1, seed=1))
    # a repeated id used to reach co_degree(g, 3, 3), which refuses u == v
    assert inclusion_exclusion_lower_bound(g, [3, 3]) == inclusion_exclusion_lower_bound(g, [3])
    assert inclusion_exclusion_check(g, [3, 3]) == inclusion_exclusion_check(g, [3])
    assert inclusion_exclusion_check(g, [9, 3, 9]) == inclusion_exclusion_check(g, [3, 9])
    for bad, v in (([0, 50], 50), ([-1, 3], -1)):
        with pytest.raises(InvalidParameter, match=rf"vertex {v} not in 0\.\.49"):
            inclusion_exclusion_check(g, bad)


def test_non_finite_lemma_parameters_are_rejected(k4):
    g = complete_graph(10)
    prof = certified(g, 0.1)
    for bad in (math.nan, math.inf):
        with pytest.raises(InvalidParameter):
            expansion_check(g, prof, m=2, alpha0=bad)
        with pytest.raises(InvalidParameter):
            expansion_check(g, prof, m=2, alpha0=0.5, c=bad)
        with pytest.raises(InvalidParameter):
            xi_count_check(g, list(range(5)), prof, alpha=bad)
        with pytest.raises(InvalidParameter):
            outer_complement_check(g, [0], prof, epsilon=bad)


def test_binomial_stream_check_lives_in_lemmas():
    import percolab
    from percolab import lemmas, percolate
    assert percolab.binomial_stream_check is lemmas.binomial_stream_check
    assert not hasattr(percolate, "LemmaReport")


def test_lemma_ids_and_report_dict():
    assert set(LEMMA_IDS) == {"expansion", "variance", "xi_count",
                              "outer_complement", "inclusion_exclusion",
                              "binomial_tails"}
    g = star_graph(200)
    prof = certify(g, 0.1, *estimate_slacks(g, 0.1))
    rep = expansion_check(g, prof, m=2, alpha0=0.5)
    d = rep.to_dict()
    assert d["lemma_id"] == "expansion" and d["passed"] is False
    assert d["witness"]["neighborhood_size"] == 1
    assert isinstance(d["witness"]["H"], list)
    assert set(d) == {"lemma_id", "passed", "checked_count", "witness",
                      "parameters", "measured", "bound"}
