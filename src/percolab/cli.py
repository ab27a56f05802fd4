"""Command line front end.

Subcommands: generate, certify, percolate, lemma, sweep, trial. Graphs come
either from an edge-list file (--graph) or a compact generator spec (--gen),
e.g. --gen gnp:n=2000,p=0.05,seed=7 or --gen paley:q=13. Seed blocks are
either comma lists (--seeds 1,2,3) or base:count (--seeds 1000:200). Every
JSON artifact is written by experiment.write_json, which adds its top-level
"schema": "percolab/1". Exit code 2 means an input error, a file that cannot
be read or written included; exit code 1 means a lemma check evaluated false.
"""

import argparse
import sys

from . import experiment, graph, lemmas, percolate
from .certify import certify as run_certify
from .certify import tightest_profile
from .errors import InvalidParameter, PercolabError, ascii_int, ascii_real, require_int
from .experiment import write_json
from .rng import derived

_INT_FIELDS = {"n", "q", "seed"}


def parse_gen(text: str) -> graph.GeneratorSpec:
    kind, _, rest = text.partition(":")
    kwargs = {}
    if rest:
        for part in rest.split(","):
            key, _, val = part.partition("=")
            if not val:
                raise InvalidParameter(f"bad --gen fragment {part!r}")
            if key in kwargs:
                raise InvalidParameter(f"repeated --gen key {key!r}")
            if key in _INT_FIELDS:
                kwargs[key] = _number(ascii_int, val, f"--gen {key}")
            elif key == "p":
                kwargs[key] = _number(ascii_real, val, "--gen p")
            else:
                raise InvalidParameter(f"unknown --gen key {key!r}")
    return graph.GeneratorSpec(kind=kind, **kwargs)


def _number(cast, text: str, what: str):
    """cast(text), cast being `ascii_real` for a real or, for an integer,
    `ascii_int`, the rule for edge-list ids and headers. InvalidParameter
    when cast raises ValueError or returns None."""
    try:
        value = cast(text)
    except ValueError:
        value = None
    if value is None:
        raise InvalidParameter(f"bad {what} value {text!r}")
    return value


def real(text: str) -> float:
    """The argparse type of every real option: an InvalidParameter, a
    ValueError, makes argparse exit 2 with "invalid real value"."""
    return _number(ascii_real, text, "real")


def seeds(text: str):
    """The argparse type of --seeds: 'base:count' as a pair, or a comma
    list of seeds, each in ASCII digits; argparse names it in "invalid
    seeds value"."""
    if ":" in text:
        return tuple(_number(ascii_int, s, "--seeds") for s in text.split(":", 1))
    return [_number(ascii_int, s, "--seeds") for s in text.split(",")]


def _load_graph(args) -> graph.Graph:
    if args.gen and args.graph:
        raise InvalidParameter("give --graph or --gen, not both")
    if args.gen:
        return graph.generate(parse_gen(args.gen))
    if args.graph:
        return graph.load_edge_list(args.graph)
    raise InvalidParameter("need --graph or --gen")


def _profile_for(args, g):
    if (args.a is None) != (args.b is None):
        raise InvalidParameter("give both --a and --b, or neither")
    if args.a is not None:
        return run_certify(g, args.p, args.a, args.b)
    graph.require_exact_codegree(g)
    return tightest_profile(g, args.p)


def _add_common(sub, p=False, epsilon=False, seed_block=False):
    sub.add_argument("--graph", help="edge-list file")
    sub.add_argument("--gen", help="generator spec kind:key=val,...")
    if p:
        sub.add_argument("--p", type=real, required=True, help="target density")
    if epsilon:
        sub.add_argument("--epsilon", type=real, default=0.3)
    if seed_block:
        sub.add_argument("--seeds", type=seeds, default=[0])
    sub.add_argument("--out", help="output path (default stdout)")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="percolab")
    sp = ap.add_subparsers(dest="command", required=True)

    g = sp.add_parser("generate", help="build a graph and save it")
    g.add_argument("--gen", required=True)
    g.add_argument("--out", required=True)

    c = sp.add_parser("certify", help="degree/co-degree certificate")
    _add_common(c, p=True)
    c.add_argument("--a", type=real, default=None, help="a_n (default: estimate)")
    c.add_argument("--b", type=real, default=None, help="b_n (default: estimate)")

    pc = sp.add_parser("percolate", help="one DFS percolation run")
    _add_common(pc)
    pc.add_argument("--rho", type=real, required=True)
    pc.add_argument("--seed", default="0")

    lm = sp.add_parser("lemma", help="bound checks with witnesses")
    _add_common(lm, p=True, epsilon=True)
    lm.add_argument("--which", required=True,
                    choices=["expansion", "variance", "xi", "outer", "incl-excl"])
    lm.add_argument("--a", type=real, default=None)
    lm.add_argument("--b", type=real, default=None)
    lm.add_argument("--m", default="2")
    lm.add_argument("--alpha0", type=real, default=0.5)
    lm.add_argument("--alpha", type=real, default=0.5)
    lm.add_argument("--c", type=real, default=1e-3)
    lm.add_argument("--u-size", default=None, help="|U| for variance/xi")
    lm.add_argument("--u-seed", default="0", help="stream for the random U")
    lm.add_argument("--root", default="0", help="BFS root for the outer check")
    lm.add_argument("--h", default=None, help="explicit H as comma list (incl-excl)")

    sw = sp.add_parser("sweep", help="rho-grid Monte Carlo sweep")
    _add_common(sw, p=True, epsilon=True, seed_block=True)
    sw.add_argument("--grid", required=True,
                    help="comma list of multipliers c (rho = c/(np))")
    sw.add_argument("--clip-rho", action="store_true")

    tr = sp.add_parser("trial", help="single-rho statistical trials")
    tr.add_argument("which", choices=["super", "sub", "hd"])
    _add_common(tr, p=True, epsilon=True, seed_block=True)
    tr.add_argument("--beta", type=real, default=None,
                    help="hd trial beta (default epsilon**5)")
    return ap


def cmd_generate(args) -> int:
    g = graph.generate(parse_gen(args.gen))
    graph.save_edge_list(g, args.out)
    sys.stdout.write(f"{g.n} vertices, {g.edge_count} edges -> {args.out}\n")
    return 0


def cmd_certify(args) -> int:
    g = _load_graph(args)
    profile = _profile_for(args, g)
    write_json(profile.to_dict(), args.out)
    return 0


def cmd_percolate(args) -> int:
    seed = _number(ascii_int, args.seed, "--seed")
    g = _load_graph(args)
    outcome = percolate.dfs_percolate(g, percolate.BernoulliStream(rho=args.rho, seed=seed))
    l1, l2 = percolate.largest_two(outcome)
    payload = {
        "rho": outcome.rho,
        "seed": outcome.seed,
        "retained_count": len(outcome.retained),
        "components": outcome.components,
        "epochs": [list(e) for e in outcome.epochs],
    }
    if args.out:
        write_json(payload, args.out)
    sys.stdout.write(f"retained {len(outcome.retained)} of {g.n}, "
                     f"L1 = {l1}, L2 = {l2}, components = {len(outcome.components)}\n")
    return 0


def _random_u(g, size, seed):
    size = require_int("--u-size", size, 0, g.n)
    return derived(seed, 0xA).choice(g.n, size=size, replace=False).tolist()


def cmd_lemma(args) -> int:
    # every integer option is read before any work, whichever check uses it
    m = _number(ascii_int, args.m, "--m")
    u_seed = _number(ascii_int, args.u_seed, "--u-seed")
    root = _number(ascii_int, args.root, "--root")
    u_size = None if args.u_size is None else _number(ascii_int, args.u_size, "--u-size")
    g = _load_graph(args)
    # inclusion-exclusion reads only H, so it needs no profile
    profile = None if args.which == "incl-excl" else _profile_for(args, g)
    if args.which == "expansion":
        report = lemmas.expansion_check(g, profile, m=m, alpha0=args.alpha0, c=args.c)
    elif args.which == "variance":
        size = u_size if u_size is not None else g.n // 2
        report = lemmas.variance_bound_check(g, _random_u(g, size, u_seed), profile)
    elif args.which == "xi":
        size = u_size if u_size is not None else (g.n + 1) // 2
        report = lemmas.xi_count_check(g, _random_u(g, size, u_seed),
                                       profile, alpha=args.alpha)
    elif args.which == "outer":
        size = lemmas.ceil_eps_over_p(args.epsilon, args.p)
        c_set = lemmas.grow_connected_set(g, root, size)
        report = lemmas.outer_complement_check(g, c_set, profile, args.epsilon)
    else:
        if not args.h:
            raise InvalidParameter("incl-excl needs --h v1,v2,...")
        H = [_number(ascii_int, v, "--h") for v in args.h.split(",")]
        report = lemmas.inclusion_exclusion_check(g, H)
    write_json(report.to_dict(), args.out)
    return 0 if report.passed else 1


def cmd_sweep(args) -> int:
    grid = [_number(ascii_real, c, "--grid") for c in args.grid.split(",")]
    out = args.out or "sweep"
    cfg = experiment.SweepConfig(
        source=_load_graph(args), p=args.p, rho_grid=grid, seeds=args.seeds,
        epsilon=args.epsilon, clip_rho=args.clip_rho, out=out)
    result = experiment.run_sweep(cfg)
    stars = "none" if result.c_star is None else repr(result.c_star)
    sys.stdout.write(f"{len(result.rows)} runs -> {out}.csv / {out}.json "
                     f"(c* = {stars})\n")
    return 0


def cmd_trial(args) -> int:
    g = _load_graph(args)
    if args.which == "super":
        summary = experiment.supercritical_trial(g, args.p, args.epsilon, args.seeds)
    elif args.which == "sub":
        summary = experiment.subcritical_trial(g, args.p, args.epsilon, args.seeds)
    else:
        beta = args.beta if args.beta is not None else args.epsilon ** 5
        summary = experiment.hd_uniqueness_trial(g, args.p, args.epsilon, beta,
                                                 args.seeds)
    write_json(summary.to_dict(), args.out)
    return 0


_COMMANDS = {
    "generate": cmd_generate,
    "certify": cmd_certify,
    "percolate": cmd_percolate,
    "lemma": cmd_lemma,
    "sweep": cmd_sweep,
    "trial": cmd_trial,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (PercolabError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
