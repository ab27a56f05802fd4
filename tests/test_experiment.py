"""Sweep and trial harness: seeds, rho grid, aggregation, emission, gating."""

import csv
import hashlib
import importlib
import json
import math

import numpy as np
import pytest

from conftest import build_graph, edge_set, star_graph
from percolab import (
    BernoulliStream,
    GeneratorSpec,
    SweepConfig,
    certify,
    dfs_percolate,
    generate,
    hd_uniqueness_trial,
    largest_two,
    max_co_degree,
    oracle_components,
    run_sweep,
    subcritical_trial,
    supercritical_trial,
)
from percolab.errors import InvalidParameter, NotCertified
from percolab.experiment import derive_profile, emit_trial_json, seed_block

G2000 = generate(GeneratorSpec(kind="gnp", n=2000, p=0.01, seed=5))
SWEEP = dict(p=0.01, rho_grid=[0.5, 1.0, 1.5], seeds=(11, 20))


def test_seed_block():
    assert seed_block((5, 3)) == [5, 6, 7]
    assert seed_block([5, 3]) == [5, 3]  # a list is explicit seeds, not a range
    assert seed_block(range(4)) == [0, 1, 2, 3]
    with pytest.raises(ValueError):
        seed_block([])
    with pytest.raises(ValueError):
        seed_block((5, 0))
    with pytest.raises(InvalidParameter):  # a library error, so the CLI exits 2
        seed_block((5, 0))
    # [1.5] used to run seed 1, (1, 2.5) to raise TypeError, (1.5, 2) to
    # give seeds 1.5 and 2.5, [True] to run seed 1, and [1, 1] to count
    # seed 1 twice in every fraction
    for bad in ([1.5], (1, 2.5), (1.5, 2), [True], [1, 1]):
        with pytest.raises(InvalidParameter):
            seed_block(bad)
    with pytest.raises(InvalidParameter, match="seed 1 is listed twice"):
        seed_block([1, 2, 1])


def test_derive_profile_round_trips():
    g = generate(GeneratorSpec(kind="gnp", n=300, p=0.05, seed=6))
    prof = derive_profile(g, 0.05)
    assert (prof.a1, prof.a2, prof.a3) == (True, True, True)
    assert prof.codegree_mode == "exact"


def test_derive_profile_fallback_when_exact_unavailable(monkeypatch):
    g = generate(GeneratorSpec(kind="gnp", n=300, p=0.05, seed=6))
    scans = []

    def counted(g_):
        scans.append(g_.n)
        return max_co_degree(g_)

    monkeypatch.setattr(importlib.import_module("percolab.certify"), "max_co_degree", counted)
    monkeypatch.setattr("percolab.graph.EXACT_CODEGREE_CAP", 10)  # n is beyond the cap
    prof = derive_profile(g, 0.05)
    assert len(scans) == 1  # one scan feeds both the slacks and the verdicts
    assert prof.codegree_mode == "sampled"
    assert (prof.a1, prof.a2, prof.a3) == (True, None, True)
    deg = g.degrees()
    assert int(deg.min()) > 15.0 - prof.a_n
    assert int(deg.max()) < 15.0 + prof.a_n
    assert prof.max_codegree < 300 * 0.05 ** 2 + prof.b_n


# --- sweep ---


def test_sweep_zero_multiplier_retains_nothing():
    res = run_sweep(SweepConfig(source=G2000, p=0.01, rho_grid=[0.0], seeds=(1, 5)))
    assert all(r.retained == 0 and r.L1 == 0 and r.L2 == 0 for r in res.rows)
    assert res.aggregates[0.0]["giant_freq"] == 0.0


def test_sweep_rho_clipping():
    g = generate(GeneratorSpec(kind="gnp", n=50, p=0.1, seed=2))
    with pytest.raises(InvalidParameter, match=r"c = 10\.0 gives rho = 2 >= 1"):
        run_sweep(SweepConfig(source=g, p=0.1, rho_grid=[10.0], seeds=[1]))
    res = run_sweep(SweepConfig(source=g, p=0.1, rho_grid=[10.0], seeds=[1],
                                clip_rho=True))
    row = res.rows[0]
    assert row.rho == 1.0
    # rho = 1 keeps every vertex: L1 is the largest component of G itself
    comps = oracle_components(g, range(50))
    assert row.L1 == max(len(c) for c in comps)
    with pytest.raises(InvalidParameter, match="multiplier must be finite and >= 0, got -0.5"):
        run_sweep(SweepConfig(source=g, p=0.1, rho_grid=[-0.5], seeds=[1]))
    # a repeated multiplier used to run twice under one aggregate key
    for grid, again in (([1, 1.0], "1.0"), ([0.0, -0.0], "-0.0"), ([0.5, 1, 0.5], "0.5")):
        with pytest.raises(InvalidParameter, match=f"multiplier {again} is listed twice"):
            run_sweep(SweepConfig(source=g, p=0.1, rho_grid=grid, seeds=[1]))


def test_sweep_rows_and_aggregates(tmp_path):
    out = str(tmp_path / "sweep")
    res = run_sweep(SweepConfig(source=G2000, out=out, **SWEEP))
    assert len(res.rows) == 60
    assert res.giant_size == 30  # ceil(0.3 / 0.01)

    # one row replayed directly through the percolation engine
    r = res.rows[7]
    outcome = dfs_percolate(G2000, BernoulliStream(rho=r.rho, seed=r.seed))
    l1, l2 = largest_two(outcome)
    assert (len(outcome.retained), l1, l2) == (r.retained, r.L1, r.L2)

    # aggregates recomputed from the emitted CSV
    with open(out + ".csv", encoding="utf-8") as fh:
        lines = list(csv.reader(fh))
    assert lines[0] == ["c", "rho", "seed", "retained", "L1", "L2"]
    assert len(lines) == 61
    by_c = {}
    for c, _rho, _seed, _ret, l1, l2 in lines[1:]:
        by_c.setdefault(float(c), []).append((int(l1), int(l2)))
    for c, pairs in by_c.items():
        agg = res.aggregates[c]
        l1s = sorted(a for a, _ in pairs)
        k = len(pairs)
        assert agg["runs"] == k == 20
        assert agg["mean_L1"] == sum(l1s) / k
        assert agg["median_L1"] == (l1s[k // 2] if k % 2 else (l1s[k // 2 - 1] + l1s[k // 2]) / 2)
        assert agg["giant_freq"] == sum(a >= 30 for a, _ in pairs) / k
        assert agg["l2_bound_freq"] == sum(b <= res.l2_bound for _, b in pairs) / k
        assert set(agg) == {"runs", "mean_L1", "median_L1", "mean_L2",
                            "median_L2", "giant_freq", "l2_bound_freq"}

    # c_star is the least multiplier whose giant frequency reaches 1/2
    crossing = [c for c in sorted(res.aggregates)
                if res.aggregates[c]["giant_freq"] >= 0.5]
    assert res.c_star == (crossing[0] if crossing else None)

    payload = json.loads((tmp_path / "sweep.json").read_text())
    assert payload["schema"] == "percolab/1" and payload["kind"] == "sweep"
    assert set(payload) == {"schema", "kind", "n", "p", "epsilon", "grid",
                            "seeds", "giant_size", "l2_bound", "aggregates",
                            "c_star", "profile"}
    assert payload["aggregates"][repr(1.5)]["runs"] == 20
    assert payload["profile"]["a1"] is True


def test_sweep_coupling_monotone_in_c():
    res = run_sweep(SweepConfig(source=G2000, **SWEEP))
    by_seed = {}
    for r in res.rows:
        by_seed.setdefault(r.seed, []).append(r)
    for rows in by_seed.values():
        rows.sort(key=lambda r: r.c)
        for lo, hi in zip(rows, rows[1:]):
            assert lo.retained <= hi.retained  # shared vertex uniforms couple the grid
            assert lo.L1 <= hi.L1


def test_sweep_rows_build_no_component_list(monkeypatch):
    """A sweep row reads only the retained count and the component sizes; a
    trial row with the outer check builds the largest component alone."""
    outcomes = []

    def recorded(g, stream):
        outcomes.append(dfs_percolate(g, stream))
        return outcomes[-1]

    monkeypatch.setattr(importlib.import_module("percolab.experiment"), "dfs_percolate",
                        recorded)
    res = run_sweep(SweepConfig(source=G2000, **SWEEP))
    assert len(outcomes) == len(res.rows) == 60
    for out, row in zip(outcomes, res.rows):
        assert set(vars(out)) == {"g", "ids", "labels", "rho", "seed", "sizes"}
        assert (row.retained, row.L1, row.L2) == (len(out.retained), *largest_two(out))
    outcomes.clear()
    supercritical_trial(G2000, 0.01, 0.3, (11, 5))
    for out in outcomes:
        assert "largest" in vars(out) and not {"retained", "components", "epochs"} & set(vars(out))


def test_sweep_reruns_byte_identical(tmp_path):
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    run_sweep(SweepConfig(source=G2000, out=a, **SWEEP))
    run_sweep(SweepConfig(source=G2000, out=b, **SWEEP))
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_sweep_empty_grid_emits_header_only(tmp_path):
    out = str(tmp_path / "empty")
    res = run_sweep(SweepConfig(source=G2000, p=0.01, rho_grid=[], seeds=[1], out=out))
    assert res.rows == [] and res.aggregates == {} and res.c_star is None
    assert (tmp_path / "empty.csv").read_text() == "c,rho,seed,retained,L1,L2\n"


# --- trials ---


def test_supercritical_when_target_is_one_vertex():
    # eps <= p makes the giant threshold a single vertex; with (1+eps)/p
    # expected retentions, every run keeps something
    g = generate(GeneratorSpec(kind="gnp", n=400, p=0.1, seed=3))
    s = supercritical_trial(g, 0.1, epsilon=0.05, seeds=(0, 30))
    assert s.giant_size == 1
    assert s.frac_giant == 1.0
    assert s.frac_small == 0.0
    assert s.kind == "super" and s.rho == pytest.approx(1.05 / 40)


def test_subcritical_eps_near_one_keeps_everything_small():
    g = generate(GeneratorSpec(kind="gnp", n=400, p=0.1, seed=3))
    s = subcritical_trial(g, 0.1, epsilon=0.999, seeds=(0, 30))
    assert s.max_L1 <= 1  # rho is 0.001/(np): isolated survivors at most
    assert s.frac_small == 1.0


def test_trial_fractions_recompute_from_rows():
    g = generate(GeneratorSpec(kind="gnp", n=400, p=0.1, seed=3))
    s = supercritical_trial(g, 0.1, epsilon=0.3, seeds=(10, 40))
    k = len(s.rows)
    assert k == 40
    assert s.frac_giant == sum(r.L1 >= s.giant_size for r in s.rows) / k
    assert s.frac_small == sum(r.L1 < s.giant_size for r in s.rows) / k
    assert s.frac_l2_bound == sum(r.L2 <= s.l2_bound for r in s.rows) / k
    assert s.max_L1 == max(r.L1 for r in s.rows)
    # the outer check fires exactly on the runs that reached the giant size
    assert all((r.outer_ok is not None) == (r.L1 >= s.giant_size) for r in s.rows)
    checked = [r.outer_ok for r in s.rows if r.outer_ok is not None]
    assert s.frac_outer_ok == (sum(checked) / len(checked) if checked else None)


@pytest.mark.parametrize("n,p,seed", [(300, 0.05, 8), (400, 0.1, 3), (800, 0.01, 4)])
def test_trial_is_a_one_column_sweep(n, p, seed):
    g = generate(GeneratorSpec(kind="gnp", n=n, p=p, seed=seed))
    eps, seeds = 0.3, (7, 12)
    trials = {1 + eps: supercritical_trial(g, p, eps, seeds, check_outer=False),
              1 - eps: subcritical_trial(g, p, eps, seeds)}
    for c, trial in trials.items():
        sweep = run_sweep(SweepConfig(source=g, p=p, rho_grid=[c], seeds=seeds, epsilon=eps))
        assert ([(r.seed, r.rho, r.retained, r.L1, r.L2) for r in trial.rows]
                == [(r.seed, r.rho, r.retained, r.L1, r.L2) for r in sweep.rows])
        column = sweep.aggregates[c]
        assert trial.frac_giant == column["giant_freq"]
        assert trial.frac_l2_bound == column["l2_bound_freq"]


def test_trial_outer_check_toggles():
    g = generate(GeneratorSpec(kind="gnp", n=400, p=0.1, seed=3))
    s = supercritical_trial(g, 0.1, epsilon=0.3, seeds=(10, 10), check_outer=False)
    assert all(r.outer_ok is None for r in s.rows)
    assert s.frac_outer_ok is None


def test_trial_rho_range():
    g = generate(GeneratorSpec(kind="gnp", n=10, p=0.2, seed=1))
    with pytest.raises(InvalidParameter, match=r"c = 2\.5 gives rho = 1\.25 >= 1"):
        supercritical_trial(g, 0.2, epsilon=1.5, seeds=[1])  # rho = 1.25
    with pytest.raises(InvalidParameter, match="multiplier must be finite and >= 0, got -0.19"):
        subcritical_trial(g, 0.2, epsilon=1.2, seeds=[1])    # rho < 0


def test_trial_gating(monkeypatch):
    star = star_graph(50)
    bad = certify(star, 0.5, a_n=1.0, b_n=30.0)  # a1 and a3 both false
    assert bad.a1 is False and bad.a3 is False
    with pytest.raises(NotCertified):
        supercritical_trial(star, 0.5, 0.3, seeds=[1], profile=bad)
    with pytest.raises(NotCertified):
        subcritical_trial(star, 0.5, 0.3, seeds=[1], profile=bad)
    monkeypatch.setattr("percolab.graph.EXACT_CODEGREE_CAP", 10)
    refuted = certify(star, 0.5, a_n=100.0, b_n=-12.0)
    assert refuted.a2 is False
    with pytest.raises(NotCertified):
        supercritical_trial(star, 0.5, 0.3, seeds=[1], profile=refuted)
    with pytest.raises(NotCertified):
        hd_uniqueness_trial(star, 0.5, 0.3, beta=0.5, seeds=[1], profile=refuted)


def test_hd_trial_vacuous_beta_proceeds():
    g = generate(GeneratorSpec(kind="gnp", n=300, p=0.05, seed=8))
    s = hd_uniqueness_trial(g, 0.05, epsilon=0.3, beta=10.0, seeds=(0, 10))
    assert s.hd_falsified is False
    assert len(s.rows) == 10


def test_hd_trial_flags_a_planted_hub():
    base = generate(GeneratorSpec(kind="gnp", n=300, p=0.05, seed=8))
    edges = edge_set(base) | {(0, v) for v in range(1, 300)}
    g = build_graph(300, edges)
    s = hd_uniqueness_trial(g, 0.05, epsilon=0.3, beta=0.3, seeds=(0, 10))
    assert s.hd_falsified is True
    assert s.hd_report.witness[1] == 0
    assert len(s.rows) == 10  # measurement still runs under a falsified HD
    d = s.to_dict()
    assert d["hd_falsified"] is True and d["hd_witness"][1] == 0


def test_trial_json_payloads(tmp_path):
    g = generate(GeneratorSpec(kind="gnp", n=300, p=0.05, seed=8))
    s = supercritical_trial(g, 0.05, epsilon=0.3, seeds=(0, 5))
    f = tmp_path / "trial.json"
    emit_trial_json(s, str(f))
    d = json.loads(f.read_text())
    assert d["schema"] == "percolab/1" and d["kind"] == "trial_super"
    assert set(d) == {"schema", "kind", "n", "p", "epsilon", "rho",
                      "giant_size", "l2_bound", "frac_giant", "frac_l2_bound",
                      "frac_small", "max_L1", "frac_outer_ok", "profile", "rows"}
    assert len(d["rows"]) == 5 and len(d["rows"][0]) == 5

    h = hd_uniqueness_trial(g, 0.05, epsilon=0.3, beta=10.0, seeds=(0, 3))
    emit_trial_json(h, str(f))
    d = json.loads(f.read_text())
    assert d["kind"] == "trial_hd"
    assert {"hd_falsified", "hd_worst_ratio", "hd_beta", "hd_witness"} <= set(d)


def test_trial_refuses_a_profile_for_another_n_or_p():
    g = generate(GeneratorSpec(kind="gnp", n=300, p=0.05, seed=8))
    other_p = derive_profile(g, 0.06)
    other_n = derive_profile(generate(GeneratorSpec(kind="gnp", n=301, p=0.05, seed=8)), 0.05)
    for profile in (other_p, other_n):
        with pytest.raises(NotCertified):
            supercritical_trial(g, 0.05, 0.3, seeds=[1], profile=profile)
        with pytest.raises(NotCertified):
            subcritical_trial(g, 0.05, 0.3, seeds=[1], profile=profile)
        with pytest.raises(NotCertified):
            hd_uniqueness_trial(g, 0.05, 0.3, beta=0.5, seeds=[1], profile=profile)
    s = supercritical_trial(g, 0.05, 0.3, seeds=[1], profile=derive_profile(g, 0.05))
    assert s.rows


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0, -0.1])
def test_bad_epsilon_is_rejected(bad):
    g = generate(GeneratorSpec(kind="gnp", n=50, p=0.1, seed=1))
    for run in (lambda: supercritical_trial(g, 0.1, bad, seeds=[1]),
                lambda: subcritical_trial(g, 0.1, bad, seeds=[1]),
                lambda: hd_uniqueness_trial(g, 0.1, bad, beta=0.5, seeds=[1]),
                lambda: run_sweep(SweepConfig(source=g, p=0.1, rho_grid=[1.0],
                                              seeds=[1], epsilon=bad))):
        with pytest.raises(InvalidParameter):
            run()


@pytest.mark.parametrize("p", [math.nan, math.inf, 0.0, -0.1, 1.5])
def test_bad_density_is_rejected(p):
    g = generate(GeneratorSpec(kind="gnp", n=50, p=0.1, seed=1))
    with pytest.raises(InvalidParameter):
        supercritical_trial(g, p, 0.3, seeds=[1])
    with pytest.raises(InvalidParameter):
        run_sweep(SweepConfig(source=g, p=p, rho_grid=[1.0], seeds=[1]))


@pytest.mark.parametrize("beta", [math.nan, math.inf])
def test_non_finite_beta_is_rejected(beta):
    g = generate(GeneratorSpec(kind="gnp", n=50, p=0.1, seed=1))
    with pytest.raises(InvalidParameter):
        hd_uniqueness_trial(g, 0.1, 0.3, beta=beta, seeds=[1])


@pytest.mark.parametrize("c, message", [
    (math.nan, "multiplier must be finite, got nan"),
    (math.inf, "multiplier must be finite, got inf"),
    (True, "multiplier must be a real number, got True"),
], ids=["nan", "inf", "True"])
def test_non_finite_multiplier_is_rejected(c, message):
    # clipping used to turn c = inf into rho = 1 and emit "Infinity" in the
    # grid, and True used to write the CSV row True,0.2,...
    g = generate(GeneratorSpec(kind="gnp", n=50, p=0.1, seed=1))
    with pytest.raises(InvalidParameter, match=message):
        run_sweep(SweepConfig(source=g, p=0.1, rho_grid=[c], seeds=[1], clip_rho=True))


def test_non_finite_values_never_reach_json(tmp_path):
    g = generate(GeneratorSpec(kind="gnp", n=300, p=0.05, seed=8))
    s = supercritical_trial(g, 0.05, 0.3, seeds=[1])
    s.l2_bound = math.nan
    with pytest.raises(ValueError):
        emit_trial_json(s, str(tmp_path / "t.json"))


# sha256 of the artifacts of one fixed instance: gnp n=300, p=0.05, seed 8,
# eps 0.3, seeds 0..4, sweep grid 0.5/1.0/1.5, hd beta 0.3. The super trial
# runs the outer check on three seeds and the hd check is falsified, so every
# branch of the trial routine lands in a pinned byte.
PINNED = {
    "sweep.csv": "a7861e3d4998fa2ecbe28ef246641f1f255901c7e331be2b059d5d795e857163",
    "sweep.json": "f7965f2c095490d22b9c5b523418d209021383bb14b115fd1df293ad3c3c523a",
    "super.json": "725dafef2a1ad5ea501c484d248471fff38479bc0f5f45dd53cc62d1a994618b",
    "sub.json": "5f7425cfa3607ca4edf237504c71afac0b1313c7a9eab9ee55ce69c24a7e2eff",
    "hd.json": "eeaaf26bf32f6443ccdc19847f5e83737fedde9cfb1f65a043a204d7ca158284",
}


def test_artifacts_are_pinned_bytes(tmp_path):
    g = generate(GeneratorSpec(kind="gnp", n=300, p=0.05, seed=8))
    run_sweep(SweepConfig(source=g, p=0.05, rho_grid=[0.5, 1.0, 1.5], seeds=(0, 5),
                          out=str(tmp_path / "sweep")))
    emit_trial_json(supercritical_trial(g, 0.05, 0.3, (0, 5)), str(tmp_path / "super.json"))
    emit_trial_json(subcritical_trial(g, 0.05, 0.3, (0, 5)), str(tmp_path / "sub.json"))
    hd = hd_uniqueness_trial(g, 0.05, 0.3, 0.3, (0, 5))
    assert hd.hd_falsified is True
    emit_trial_json(hd, str(tmp_path / "hd.json"))
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in PINNED}
    assert got == PINNED
