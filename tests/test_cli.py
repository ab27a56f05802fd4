"""CLI coverage: spec parsing, every subcommand end to end, exit codes.

Each JSON-emitting command is replayed against the library call it wraps, so
the front end cannot silently drift from the programmatic API.
"""

import argparse
import importlib
import json
import math
import os
import resource
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import cycle_graph
import percolab
from percolab import cli, lemmas
from percolab.certify import certify, estimate_slacks
from percolab.cli import parse_gen, parse_seeds
from percolab.errors import InvalidParameter
from percolab.experiment import (
    SweepConfig,
    hd_uniqueness_trial,
    run_sweep,
    supercritical_trial,
)
from percolab.graph import GeneratorSpec, generate, load_edge_list, save_edge_list
from percolab.lemmas import (
    expansion_check,
    grow_connected_set,
    outer_complement_check,
    variance_bound_check,
    xi_count_check,
)
from percolab.percolate import BernoulliStream, dfs_percolate
from percolab.rng import derived

LEMMA_KEYS = {"schema", "lemma_id", "passed", "checked_count", "witness",
              "parameters", "measured", "bound"}


def profile_for(gen_text, p):
    g = generate(parse_gen(gen_text))
    a_n, b_n = estimate_slacks(g, p)
    return g, certify(g, p, a_n, b_n)


def test_parse_gen():
    assert parse_gen("gnp:n=2000,p=0.05,seed=7") == GeneratorSpec(
        kind="gnp", n=2000, p=0.05, seed=7)
    assert parse_gen("paley:q=13") == GeneratorSpec(kind="paley", q=13)
    assert parse_gen("complete:n=4") == GeneratorSpec(kind="complete", n=4)
    with pytest.raises(InvalidParameter, match=r"bad --gen fragment 'n='"):
        parse_gen("gnp:n=")  # empty value
    with pytest.raises(InvalidParameter, match=r"unknown --gen key 'x'"):
        parse_gen("gnp:x=1")
    with pytest.raises(InvalidParameter, match=r"unknown --gen key 'order'"):
        parse_gen("gnp:order=10")
    # the last of two values used to win silently
    with pytest.raises(InvalidParameter, match=r"repeated --gen key 'seed'"):
        parse_gen("gnp:n=10,p=0.5,seed=1,seed=2")
    with pytest.raises(InvalidParameter, match=r"repeated --gen key 'p'"):
        parse_gen("gnp:n=10,p=0.5,p=0.5,seed=1")


@pytest.mark.parametrize("fields,call,message", [
    (dict(gen="complete:n=3", graph="g.txt"), cli._load_graph, "give --graph or --gen, not both"),
    (dict(gen=None, graph=None), cli._load_graph, "need --graph or --gen"),
    (dict(a=1.0, b=None), lambda args: cli._profile_for(args, cycle_graph(5)),
     "give both --a and --b, or neither"),
], ids=["both-sources", "no-source", "a-without-b"])
def test_argument_errors_are_invalid_parameters(fields, call, message):
    with pytest.raises(InvalidParameter, match=f"^{message}$"):
        call(argparse.Namespace(**fields))


def test_parse_seeds():
    assert parse_seeds("1000:200") == (1000, 200)
    assert parse_seeds("1,2,3") == [1, 2, 3]
    assert parse_seeds("7") == [7]


def test_lemma_parser_defaults():
    args = cli.build_parser().parse_args(
        ["lemma", "--which", "xi", "--gen", "g", "--p", "0.5"])
    assert args.epsilon == 0.3
    assert (args.m, args.alpha0, args.alpha, args.c) == (2, 0.5, 0.5, 1e-3)
    # the expansion scan is chosen by C(n, m) against EXHAUSTIVE_SET_CAP
    assert not hasattr(args, "mode")
    assert args.u_size is None and args.u_seed == 0 and args.root == 0
    assert args.a is None and args.b is None and args.out is None


def test_generate_writes_edge_list(tmp_path, capsys):
    out = tmp_path / "k8.txt"
    assert cli.main(["generate", "--gen", "complete:n=8", "--out", str(out)]) == 0
    g = load_edge_list(str(out))
    assert g.n == 8 and g.edge_count == 28
    assert "8 vertices, 28 edges" in capsys.readouterr().out


def test_generate_bad_spec_exits_2(tmp_path, capsys):
    out = str(tmp_path / "x.txt")
    assert cli.main(["generate", "--gen", "gnp:n=", "--out", out]) == 2
    assert cli.main(["generate", "--gen", "blob:n=5", "--out", out]) == 2
    assert "error:" in capsys.readouterr().err


def test_certify_matches_library(tmp_path):
    out = tmp_path / "cert.json"
    rc = cli.main(["certify", "--gen", "gnp:n=300,p=0.1,seed=9",
                   "--p", "0.1", "--out", str(out)])
    assert rc == 0
    g, profile = profile_for("gnp:n=300,p=0.1,seed=9", 0.1)
    assert json.loads(out.read_text()) == json.loads(profile.to_json())

    rc = cli.main(["certify", "--gen", "gnp:n=300,p=0.1,seed=9", "--p", "0.1",
                   "--a", "5", "--b", "30", "--out", str(out)])
    assert rc == 0
    forced = certify(g, 0.1, 5.0, 30.0)
    assert json.loads(out.read_text()) == json.loads(forced.to_json())


def test_certify_scans_codegree_once(tmp_path, monkeypatch):
    calls = []
    certify_module = importlib.import_module("percolab.certify")
    scan = certify_module.max_co_degree
    monkeypatch.setattr(certify_module, "max_co_degree",
                        lambda *args, **kwargs: calls.append(1) or scan(*args, **kwargs))
    rc = cli.main(["certify", "--gen", "gnp:n=200,p=0.1,seed=3", "--p", "0.1",
                   "--out", str(tmp_path / "cert.json")])
    assert rc == 0 and len(calls) == 1


def test_certify_beyond_exact_cap_exits_2(tmp_path, monkeypatch):
    monkeypatch.setattr(cli.graph, "EXACT_CODEGREE_CAP", 50)
    rc = cli.main(["certify", "--gen", "gnp:n=60,p=0.1,seed=3", "--p", "0.1",
                   "--out", str(tmp_path / "cert.json")])
    assert rc == 2 and not (tmp_path / "cert.json").exists()


def test_certify_without_graph_exits_2(capsys):
    assert cli.main(["certify", "--p", "0.5"]) == 2
    assert "need --graph or --gen" in capsys.readouterr().err


def test_percolate_payload(tmp_path, capsys):
    out = tmp_path / "run.json"
    rc = cli.main(["percolate", "--gen", "gnp:n=400,p=0.05,seed=2",
                   "--rho", "0.5", "--seed", "3", "--out", str(out)])
    assert rc == 0
    g = generate(parse_gen("gnp:n=400,p=0.05,seed=2"))
    outcome = dfs_percolate(g, BernoulliStream(rho=0.5, seed=3))
    expected = {
        "schema": "percolab/1",
        "rho": 0.5,
        "seed": 3,
        "retained_count": len(outcome.retained),
        "components": outcome.components,
        "epochs": [list(e) for e in outcome.epochs],
    }
    assert json.loads(out.read_text()) == expected
    assert f"retained {len(outcome.retained)} of 400" in capsys.readouterr().out


def test_percolate_bad_rho_exits_2(capsys):
    assert cli.main(["percolate", "--gen", "complete:n=5", "--rho", "1.5"]) == 2
    assert "error:" in capsys.readouterr().err


def test_lemma_incl_excl(tmp_path):
    out = tmp_path / "ie.json"
    rc = cli.main(["lemma", "--which", "incl-excl", "--gen", "complete:n=4",
                   "--p", "0.9", "--h", "0,1", "--out", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert set(payload) == LEMMA_KEYS
    # K4, H = {0,1}: formula 3+3 - 2 - 2 = 2 meets |N(H)| = |{2,3}| exactly.
    assert payload["lemma_id"] == "inclusion_exclusion"
    assert payload["measured"] == 2 and payload["bound"] == 2
    assert payload["passed"] is True and payload["parameters"] == {"H": [0, 1]}


def test_lemma_incl_excl_needs_h(capsys):
    rc = cli.main(["lemma", "--which", "incl-excl", "--gen", "complete:n=4",
                   "--p", "0.9"])
    assert rc == 2
    assert "needs --h" in capsys.readouterr().err


def test_lemma_expansion_matches_library(tmp_path):
    out = tmp_path / "exp.json"
    rc = cli.main(["lemma", "--which", "expansion", "--gen", "complete:n=10",
                   "--p", "0.1", "--m", "2", "--alpha0", "0.9", "--out", str(out)])
    assert rc == 0
    g, profile = profile_for("complete:n=10", 0.1)
    report = expansion_check(g, profile, m=2, alpha0=0.9, c=1e-3)
    assert report.passed and report.parameters["mode"] == "exhaustive"
    assert json.loads(out.read_text()) == dict(report.to_dict(), schema="percolab/1")


def test_lemma_variance_default_u(tmp_path):
    out = tmp_path / "var.json"
    rc = cli.main(["lemma", "--which", "variance", "--gen", "complete:n=60",
                   "--p", "0.9", "--out", str(out)])
    assert rc == 0
    g, profile = profile_for("complete:n=60", 0.9)
    u = derived(0, 0xA).choice(60, size=30, replace=False).tolist()
    report = variance_bound_check(g, u, profile)
    assert report.passed
    assert json.loads(out.read_text()) == dict(report.to_dict(), schema="percolab/1")


def test_lemma_xi_matches_library(tmp_path):
    out = tmp_path / "xi.json"
    rc = cli.main(["lemma", "--which", "xi", "--gen", "complete:n=60",
                   "--p", "0.9", "--u-seed", "1", "--out", str(out)])
    assert rc == 0
    g, profile = profile_for("complete:n=60", 0.9)
    u = derived(1, 0xA).choice(60, size=30, replace=False).tolist()
    report = xi_count_check(g, u, profile, alpha=0.5)
    assert report.passed and report.measured == 0
    assert json.loads(out.read_text()) == dict(report.to_dict(), schema="percolab/1")


def test_lemma_outer_pass(tmp_path):
    out = tmp_path / "outer.json"
    rc = cli.main(["lemma", "--which", "outer", "--gen", "gnp:n=200,p=0.1,seed=4",
                   "--p", "0.1", "--root", "0", "--out", str(out)])
    assert rc == 0
    g, profile = profile_for("gnp:n=200,p=0.1,seed=4", 0.1)
    c_set = grow_connected_set(g, 0, math.ceil(0.3 / 0.1))
    report = outer_complement_check(g, c_set, profile, 0.3)
    assert report.passed
    assert json.loads(out.read_text()) == dict(report.to_dict(), schema="percolab/1")


def test_lemma_outer_fail_exits_1(tmp_path):
    # A 60-cycle has tiny neighborhoods, so the outer complement overshoots
    # the bound and the command signals the failed check in its exit code.
    path = tmp_path / "c60.txt"
    save_edge_list(cycle_graph(60), str(path))
    out = tmp_path / "outer.json"
    rc = cli.main(["lemma", "--which", "outer", "--graph", str(path),
                   "--p", "0.1", "--out", str(out)])
    assert rc == 1
    payload = json.loads(out.read_text())
    assert payload["passed"] is False
    assert payload["measured"] == 55


def test_lemma_sampled_expansion_beside_a_small_component(tmp_path, monkeypatch):
    # the greedy set starts in the component {0, 1}, smaller than m = 3; it
    # used to add vertex -1 and exit 2 with "vertex -1 not in 0..5". Above
    # EXHAUSTIVE_SET_CAP (C(6, 3) = 20 sets here) the scan samples, where it
    # used to exit 2 with a ResourceLimit.
    path = tmp_path / "g.txt"
    path.write_text("# n=6\n0 1\n2 3\n3 4\n4 5\n2 5\n2 4\n")
    monkeypatch.setattr(lemmas, "EXPANSION_SAMPLES", 100)
    monkeypatch.setattr(lemmas, "EXHAUSTIVE_SET_CAP", 19)
    out = tmp_path / "exp.json"
    rc = cli.main(["lemma", "--which", "expansion", "--graph", str(path),
                   "--p", "0.05", "--m", "3", "--out", str(out)])
    payload = json.loads(out.read_text())
    assert rc == (0 if payload["passed"] else 1)
    assert payload["parameters"]["mode"] == "sampled"
    assert payload["checked_count"] == 101 and payload["measured"] == 1


def test_readme_cli_lines_parse():
    # every command in the README's CLI block, continuations joined, is one
    # the parser accepts
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line.strip() for line in block.replace("\\\n", " ").splitlines() if line.strip()]
    assert len(lines) >= 6
    for line in lines:
        words = shlex.split(line)
        assert words[0] == "percolab", line
        cli.build_parser().parse_args(words[1:])


def test_sweep_files_match_direct_run(tmp_path, capsys):
    sweep = ["sweep", "--p", "0.05", "--grid", "0.5,1.5", "--seeds", "5:4"]
    rc = cli.main([*sweep, "--gen", "gnp:n=200,p=0.05,seed=2",
                   "--out", str(tmp_path / "cliout")])
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "8 runs ->" in stdout and "(c* =" in stdout

    # the same host saved as an edge list and swept from the file
    g = generate(GeneratorSpec(kind="gnp", n=200, p=0.05, seed=2))
    save_edge_list(g, str(tmp_path / "host.txt"))
    rc = cli.main([*sweep, "--graph", str(tmp_path / "host.txt"),
                   "--out", str(tmp_path / "fileout")])
    assert rc == 0

    cfg = SweepConfig(source=g, p=0.05, rho_grid=[0.5, 1.5], seeds=(5, 4),
                      out=str(tmp_path / "direct"))
    run_sweep(cfg)
    for ext in (".csv", ".json"):
        direct_bytes = (tmp_path / ("direct" + ext)).read_bytes()
        assert (tmp_path / ("cliout" + ext)).read_bytes() == direct_bytes
        assert (tmp_path / ("fileout" + ext)).read_bytes() == direct_bytes


def test_trial_super_matches_library(tmp_path):
    out = tmp_path / "super.json"
    rc = cli.main(["trial", "super", "--gen", "gnp:n=400,p=0.1,seed=3",
                   "--p", "0.1", "--epsilon", "0.05", "--seeds", "0:8",
                   "--out", str(out)])
    assert rc == 0
    g = generate(parse_gen("gnp:n=400,p=0.1,seed=3"))
    summary = supercritical_trial(g, 0.1, 0.05, (0, 8))
    expected = json.loads(json.dumps(summary.to_dict()))  # tuples become lists
    assert json.loads(out.read_text()) == expected


def test_trial_hd_default_beta(tmp_path):
    # --beta defaults to epsilon**5.
    out = tmp_path / "hd.json"
    rc = cli.main(["trial", "hd", "--gen", "gnp:n=300,p=0.05,seed=8",
                   "--p", "0.05", "--seeds", "0,1", "--out", str(out)])
    assert rc == 0
    g = generate(parse_gen("gnp:n=300,p=0.05,seed=8"))
    summary = hd_uniqueness_trial(g, 0.05, 0.3, 0.3 ** 5, [0, 1])
    payload = json.loads(out.read_text())
    assert payload == json.loads(json.dumps(summary.to_dict()))
    assert payload["kind"] == "trial_hd"
    assert payload["hd_beta"] == 0.3 ** 5


def run_cli(args, cwd, timeout=60):
    """The CLI in a fresh process with 2 GiB of address space and one BLAS
    thread: a hang fails at the timeout and an oversized allocation fails
    fast, instead of stalling the suite or exhausting the machine."""
    src = os.path.dirname(os.path.dirname(percolab.__file__))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
    return subprocess.run([sys.executable, "-m", "percolab.cli", *args], cwd=cwd,
                          env=env, capture_output=True, text=True, timeout=timeout,
                          preexec_fn=limit)


GEN = "--gen gnp:n=50,p=0.1,seed=1"

# Input errors: each must exit 2 with a one-line message. Without the checks,
# some exited 1 (the "lemma false" code) with a traceback, some exited 0 with
# NaN in their JSON, and a non-finite p never returned.
BAD_INPUT = {
    "certify-p-nan": f"certify {GEN} --p nan",  # the slack search never returned
    "certify-p-inf": f"certify {GEN} --p inf",
    "certify-p-above-1": f"certify {GEN} --p 1.5",
    "trial-p-nan": f"trial super {GEN} --p nan",
    "trial-p-0": f"trial super {GEN} --p 0",  # ZeroDivisionError
    "sweep-p-0": f"sweep {GEN} --p 0 --grid 1",
    "certify-b-nan": f"certify {GEN} --p 0.1 --a 10 --b nan",  # exit 0, NaN in JSON
    "hd-beta-nan": f"trial hd {GEN} --p 0.1 --beta nan",
    "sub-epsilon-nan": f"trial sub {GEN} --p 0.1 --epsilon nan",
    "sweep-epsilon-0": f"sweep {GEN} --p 0.1 --grid 1 --epsilon 0",
    "sweep-grid-inf": f"sweep {GEN} --p 0.1 --grid inf --clip-rho",
    "xi-alpha-nan": f"lemma --which xi {GEN} --p 0.1 --alpha nan",  # exit 1, NaN in JSON
    "expansion-alpha0-nan": f"lemma --which expansion {GEN} --p 0.1 --alpha0 nan",
    "outer-epsilon-nan": f"lemma --which outer {GEN} --p 0.1 --epsilon nan",
    "outer-epsilon-0": f"lemma --which outer {GEN} --p 0.1 --epsilon 0",  # exit 0, vacuous bound
    "seeds-count-0": f"sweep {GEN} --p 0.1 --grid 1 --seeds 5:0",  # bare ValueError
    "gen-n-not-int": "certify --gen gnp:n=abc,p=0.1,seed=1 --p 0.1",
    "gen-p-not-float": "certify --gen gnp:n=50,p=x,seed=1 --p 0.1",
    "gen-seed-negative": "generate --gen gnp:n=50,p=0.1,seed=-1 --out g.txt",
    "percolate-seed-negative": f"percolate {GEN} --rho 0.5 --seed -1",
    "grid-not-float": f"sweep {GEN} --p 0.1 --grid 1,x",
    "h-not-int": f"lemma --which incl-excl {GEN} --p 0.1 --h 0,x",
    "sweep-epsilon-1e-200": f"sweep {GEN} --p 0.1 --grid 1 --epsilon 1e-200",  # ZeroDivisionError
    "sweep-epsilon-1e-160": f"sweep {GEN} --p 0.1 --grid 1 --epsilon 1e-160",  # inf L2 bound
    "sub-epsilon-1e300": f"trial sub {GEN} --p 0.1 --epsilon 1e300",  # OverflowError in eps**2
    "trial-p-1e-310": f"trial super {GEN} --p 1e-310",  # OverflowError in ceil(eps/p)
    "expansion-alpha0-1e308": f"lemma --which expansion {GEN} --p 0.1 --alpha0 1e308",  # -inf
    "graph-missing": "certify --graph missing.txt --p 0.1",  # FileNotFoundError
    "graph-is-directory": "certify --graph . --p 0.1",  # IsADirectoryError
    "out-dir-missing": f"trial super {GEN} --p 0.1 --out missing/x.json",  # FileNotFoundError
    "xi-alpha-1e308": f"lemma --which xi {GEN} --p 0.1 --alpha 1e308",  # OverflowError
    "variance-slacks-1e308": f"lemma --which variance {GEN} --p 0.1 --a 1e308 --b 1e308",  # NaN
    "outer-slacks-1e308": f"lemma --which outer {GEN} --p 0.1 --a 1e308 --b 1e308",  # inf
    "variance-u-size-above-n": f"lemma --which variance {GEN} --p 0.1 --u-size 1000",  # ValueError
    "xi-u-size-negative": f"lemma --which xi {GEN} --p 0.1 --u-size -1",  # ValueError
    "graph-and-gen": f"certify --graph missing.txt {GEN} --p 0.1",  # exit 0, --graph ignored
    # int32 neighbor ids: a 16 GiB MemoryError, or silently wrapped ids
    "gen-n-above-int32": "generate --gen gnp:n=2147483700,p=1e-20,seed=1 --out g.txt",
    # 2e6 expected edges, but 15 GiB of row starts: a MemoryError traceback
    "gen-n-above-edge-cap": "generate --gen gnp:n=2000000000,p=1e-12,seed=1 --out g.txt",
    "u-seed-negative": f"lemma --which variance {GEN} --p 0.1 --u-seed -1",  # ValueError
    # a prime near 1e18: trial division never returned
    "gen-q-above-int32": "generate --gen paley:q=1000000000000000009 --out g.txt",
    # a vacuous pass over C(5, 10) = 0 sets
    "expansion-m-above-n": "lemma --which expansion "
                           "--gen gnp:n=5,p=0.01,seed=1 --p 0.01 --m 10",
    "certify-a-without-b": f"certify {GEN} --p 0.1 --a 5",  # exit 0, a_n estimated
    "lemma-b-without-a": f"lemma --which variance {GEN} --p 0.1 --b 5",  # exit 0, b_n estimated
    "outer-root-above-n": f"lemma --which outer {GEN} --p 0.1 --root 999",  # IndexError
    "gen-seed-repeated": "generate --gen gnp:n=10,p=0.5,seed=1,seed=2 --out g.txt",  # seed 2
}


@pytest.mark.parametrize("args", BAD_INPUT.values(), ids=BAD_INPUT.keys())
def test_bad_input_exits_2_without_traceback(args, tmp_path):
    done = run_cli(args.split(), tmp_path)
    assert done.returncode == 2, done.stderr
    assert done.stderr.startswith("error:") and "Traceback" not in done.stderr
    assert done.stdout == ""


def test_perturbed_below_two_vertices_is_the_plain_graph(tmp_path):
    # rng.integers(0, 0) used to raise a bare ValueError for n = 1
    done = run_cli(["generate", "--gen", "near_regular_perturbed:n=1,p=0.5,seed=1",
                    "--out", "g.txt"], tmp_path)
    assert done.returncode == 0 and done.stderr == ""
    assert (tmp_path / "g.txt").read_text() == "# n=1\n"


def test_lemma_incl_excl_matches_library(tmp_path):
    out = tmp_path / "ie.json"
    rc = cli.main(["lemma", "--which", "incl-excl", "--gen", "gnp:n=200,p=0.1,seed=4",
                   "--p", "0.1", "--h", "0,1,5,9", "--out", str(out)])
    report = lemmas.inclusion_exclusion_check(generate(parse_gen("gnp:n=200,p=0.1,seed=4")),
                                              [0, 1, 5, 9])
    assert rc == (0 if report.passed else 1)
    assert json.loads(out.read_text()) == dict(report.to_dict(), schema="percolab/1")


def test_lemma_incl_excl_reads_h_as_a_set(tmp_path, capsys):
    # --h 3,3 used to exit 2 with co_degree's "co_degree needs u != v, got 3"
    for h in ("3,3", "3"):
        rc = cli.main(["lemma", "--which", "incl-excl", *GEN.split(), "--p", "0.1",
                       "--h", h, "--out", str(tmp_path / f"{h}.json")])
        assert rc in (0, 1)
    assert (tmp_path / "3,3.json").read_text() == (tmp_path / "3.json").read_text()
    capsys.readouterr()
    assert cli.main(["lemma", "--which", "incl-excl", *GEN.split(), "--p", "0.1",
                     "--h", "3,50"]) == 2
    assert capsys.readouterr().err == "error: vertex 50 not in 0..49\n"


def test_lemma_incl_excl_needs_no_profile_beyond_exact_cap(tmp_path, monkeypatch):
    # incl-excl reads only H, but the profile used to be built first: a
    # co-degree scan on every run, and exit 2 beyond the exact cap
    args = ["lemma", "--which", "incl-excl", "--gen", "gnp:n=50,p=0.1,seed=3",
            "--p", "0.1", "--h", "0,1,5,9", "--out"]
    below = cli.main([*args, str(tmp_path / "below.json")])
    monkeypatch.setattr(cli.graph, "EXACT_CODEGREE_CAP", 10)
    beyond = cli.main([*args, str(tmp_path / "beyond.json")])
    assert below in (0, 1) and beyond == below
    assert (tmp_path / "beyond.json").read_text() == (tmp_path / "below.json").read_text()


def test_lemma_expansion_at_m1_reads_the_degrees(tmp_path):
    # n = 40000 has 40000 sets of size 1, within EXHAUSTIVE_SET_CAP; the scan
    # used to build a 1.6 GB adjacency matrix plus a temporary of that size
    gen = "gnp:n=40000,p=0.002,seed=1"
    done = run_cli(["lemma", "--which", "expansion", "--gen", gen, "--p", "0.002",
                    "--a", "80", "--b", "10", "--m", "1", "--alpha0", "0.7",
                    "--out", "exp.json"], tmp_path)
    assert done.returncode == 0, done.stderr
    report = json.loads((tmp_path / "exp.json").read_text())
    deg = generate(parse_gen(gen)).degrees()
    assert report["checked_count"] == 40000 and report["passed"]
    assert report["measured"] == deg.min()
