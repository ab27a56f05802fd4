"""Assumption certification: verdicts, slack estimation, HD falsification."""

import json
import math

import numpy as np
import pytest

from conftest import complete_graph, cycle_graph, path_graph, star_graph
from percolab import GeneratorSpec, certify, estimate_slacks, generate, hd_check, max_co_degree
from percolab.certify import tightest_profile
from percolab.errors import InvalidParameter, NotCertified, ResourceLimit

GNP_CASES = [(200, 0.1, 5), (500, 0.05, 6), (300, 0.3, 7)]


def test_certify_k6_all_true():
    prof = certify(complete_graph(6), p=1.0, a_n=2.0, b_n=3.0)
    assert (prof.a1, prof.a2, prof.a3) == (True, True, True)
    assert prof.min_degree == prof.max_degree == 5
    assert prof.max_codegree == 4
    assert prof.codegree_mode == "exact"


def test_certify_star_a1_false():
    # min degree 1 is far below n*p - a_n = 1.5
    prof = certify(star_graph(5), p=0.5, a_n=1.0, b_n=3.0)
    assert prof.a1 is False
    assert prof.a2 is True
    assert prof.a3 is False  # hub degree 4 >= 2.5 + 1


def test_certify_ties_fail():
    """The inequalities are strict; exact equality on both sides must fail."""
    # K4 at p=1: n*p = 4, degrees 3, max co-degree 2 (integer-exact floats)
    prof = certify(complete_graph(4), p=1.0, a_n=1.0, b_n=-2.0)
    assert prof.a1 is False   # 3 > 4 - 1 is a tie
    assert prof.a2 is False   # 2 < 4 - 2 is a tie
    assert prof.a3 is True    # 3 < 4 + 1


def test_require_names_each_falsified_verdict(monkeypatch):
    k4 = complete_graph(4)
    prof = certify(k4, p=1.0, a_n=1.0, b_n=-2.0)  # a1, a2 False
    prof.require(k4, "a3")
    with pytest.raises(NotCertified, match=r"falsifies a1, a2 \(need a1, a2, a3"):
        prof.require(k4, "a1", "a2", "a3")
    monkeypatch.setattr("percolab.graph.EXACT_CODEGREE_CAP", 2)
    sampled = tightest_profile(k4, 1.0)
    assert sampled.a2 is None  # undecided, so not falsified: it passes
    sampled.require(k4, "a1", "a2", "a3")


def test_certify_chernoff_slacks():
    g = generate(GeneratorSpec(kind="gnp", n=5000, p=0.05, seed=42))
    n, p = 5000, 0.05
    a = 4 * math.sqrt(n * p * math.log(n))
    b = 4 * math.sqrt(n * p * p * math.log(n))
    prof = certify(g, p, a, b)
    assert (prof.a1, prof.a2, prof.a3) == (True, True, True)


def test_estimate_slacks_k4():
    g = complete_graph(4)
    a, b = estimate_slacks(g, 0.5)
    # measured gaps are exactly 1; one ulp-of-2.0 nudge makes them strict
    assert a == b == 1.0000000000000004
    prof = certify(g, 0.5, a, b)
    assert (prof.a1, prof.a2, prof.a3) == (True, True, True)
    # at exactly 1.0 the A3 and A2 comparisons tie and fail
    prof = certify(g, 0.5, 1.0, 1.0)
    assert prof.a1 is True and prof.a3 is False and prof.a2 is False


def test_estimate_slacks_c6():
    g = cycle_graph(6)
    a, b = estimate_slacks(g, 1 / 3)
    # 2-regular at n*p = 2: both degree gaps are zero, so a_n is a pure nudge
    assert a == 4.440892098500626e-16
    assert b == 0.3333333333333336
    prof = certify(g, 1 / 3, a, b)
    assert (prof.a1, prof.a2, prof.a3) == (True, True, True)


def test_estimate_slacks_regular_tie_is_fast():
    # degree == n*p exactly; the nudge must step in ulps of n*p, not from 0
    a, b = estimate_slacks(complete_graph(4), 0.75)
    assert a == 4.440892098500626e-16
    assert b == -0.24999999999999956  # co-degree 2 sits below n*p^2 = 2.25
    prof = certify(complete_graph(4), 0.75, a, b)
    assert (prof.a1, prof.a2, prof.a3) == (True, True, True)


@pytest.mark.parametrize("n,p,seed", GNP_CASES)
def test_estimate_round_trips_on_gnp(n, p, seed):
    g = generate(GeneratorSpec(kind="gnp", n=n, p=p, seed=seed))
    a, b = estimate_slacks(g, p)
    prof = certify(g, p, a, b)
    assert (prof.a1, prof.a2, prof.a3) == (True, True, True)
    # naive field recompute
    deg = [g.degree(v) for v in range(n)]
    assert prof.min_degree == min(deg) and prof.max_degree == max(deg)
    assert prof.max_codegree == max_co_degree(g).value
    # verdicts are monotone in the slacks
    wider = certify(g, p, a + 1, b + 1)
    assert (wider.a1, wider.a2, wider.a3) == (True, True, True)


def test_estimate_slacks_are_tight():
    g = generate(GeneratorSpec(kind="gnp", n=200, p=0.1, seed=5))
    a, b = estimate_slacks(g, 0.1)
    # shrinking either slack below the measured gap flips a verdict
    deg = g.degrees()
    gap = max(200 * 0.1 - deg.min(), deg.max() - 200 * 0.1)
    shrunk = certify(g, 0.1, math.nextafter(gap, -math.inf), b)
    assert not (shrunk.a1 and shrunk.a3)
    co_gap = max_co_degree(g).value - 200 * 0.01
    shrunk = certify(g, 0.1, a, math.nextafter(co_gap, -math.inf))
    assert shrunk.a2 is False


def test_certify_sampled_mode_undecided_and_refuted(monkeypatch):
    monkeypatch.setattr("percolab.graph.EXACT_CODEGREE_CAP", 10)
    g = star_graph(50)
    prof = certify(g, 0.5, a_n=30.0, b_n=10.0)
    assert prof.codegree_mode == "sampled"
    assert prof.a2 is None  # lower bound 1 cannot refute 12.5 + 10
    prof = certify(g, 0.5, a_n=30.0, b_n=-12.0)
    assert prof.a2 is False  # even the sampled lower bound breaks 12.5 - 12


def test_estimate_slacks_refuses_sampled_mode(monkeypatch):
    monkeypatch.setattr("percolab.graph.EXACT_CODEGREE_CAP", 10)
    with pytest.raises(ResourceLimit, match="exact co-degree needs n <= 10, got 50"):
        estimate_slacks(star_graph(50), 0.5)


def test_profile_json_round_trip():
    prof = certify(complete_graph(6), p=1.0, a_n=2.0, b_n=3.0)
    d = json.loads(prof.to_json())
    assert set(d) == {"n", "p", "a_n", "b_n", "min_degree", "max_degree",
                      "max_codegree", "codegree_mode", "a1", "a2", "a3"}
    assert d["n"] == 6 and d["a1"] is True and d["max_codegree"] == 4


@pytest.mark.parametrize("p", [math.nan, math.inf, -math.inf, 0.0, -0.5, 1.0000001, True, "0.1"])
def test_density_outside_unit_interval_is_rejected(p):
    # a non-finite p used to send the slack search into an endless loop
    g = complete_graph(6)
    for run in (lambda: certify(g, p, a_n=1.0, b_n=1.0), lambda: estimate_slacks(g, p),
                lambda: tightest_profile(g, p)):
        with pytest.raises(InvalidParameter):
            run()


@pytest.mark.parametrize("a_n,b_n", [(math.nan, 1.0), (1.0, math.nan), (math.inf, 1.0),
                                     (1.0, -math.inf)])
def test_non_finite_slacks_are_rejected(a_n, b_n):
    with pytest.raises(InvalidParameter):
        certify(complete_graph(6), 1.0, a_n=a_n, b_n=b_n)


# --- hereditary degree falsification ---


def test_hd_complete_graph_not_falsified():
    rep = hd_check(complete_graph(50), beta=0.1, p=1.0)
    assert not rep.falsified and rep.witness is None
    assert rep.worst_ratio == pytest.approx(44 / 45)  # d(v,U)=44 over |U|=45


def test_hd_star_hub_is_the_witness():
    rep = hd_check(star_graph(100), beta=1.0, p=0.01)
    assert rep.falsified
    assert rep.witness[1] == 0  # the hub dominates every large subset


def test_hd_gnp_threshold():
    g = generate(GeneratorSpec(kind="gnp", n=3000, p=0.1, seed=0))
    low = hd_check(g, beta=0.2, p=0.1)
    high = hd_check(g, beta=0.3, p=0.1)
    assert low.worst_ratio == high.worst_ratio == 1.2740740740740741
    assert low.falsified and low.witness is not None
    assert not high.falsified and high.witness is None


def test_hd_validation():
    g = complete_graph(10)
    assert hd_check(g, beta=0.1, p=1.0).subset_fraction == 0.9
    with pytest.raises(InvalidParameter, match="subset of size 0 from n=1"):
        hd_check(complete_graph(1), beta=0.1, p=1.0)  # floor(0.9 * 1) = 0
    with pytest.raises(ValueError):
        hd_check(g, beta=0.1, p=1.0, trials=0)
    with pytest.raises(InvalidParameter):
        hd_check(g, beta=0.1, p=1.0, trials=0)
    # beta nan used to report "not falsified" untested, seed -1 to raise a
    # numpy ValueError and trials 2.5 a TypeError
    for bad in (dict(beta=math.nan), dict(seed=-1), dict(trials=2.5)):
        with pytest.raises(InvalidParameter):
            hd_check(g, **{"beta": 0.1, "p": 1.0, **bad})
    for p in (math.nan, 0.0, -0.1, 1.5):  # a NaN or non-positive p used to read ratio 0
        with pytest.raises(InvalidParameter):
            hd_check(g, beta=0.1, p=p)


def test_hd_deterministic():
    g = generate(GeneratorSpec(kind="gnp", n=400, p=0.1, seed=21))
    r1 = hd_check(g, beta=0.25, p=0.1, trials=20, seed=9)
    r2 = hd_check(g, beta=0.25, p=0.1, trials=20, seed=9)
    assert r1 == r2
