"""Monte Carlo percolation experiments across the 1/(np) threshold.

Sweeps run the DFS explorer over a grid of retention multipliers c (so
rho = c/(np)) and a block of seeds, with vertex-indexed uniforms giving exact
monotone coupling across the grid for a fixed seed. Trials package the three
standard single-rho measurements, each a one-column sweep through the same
run loop:

  super: rho = (1+eps)/(np); fraction of seeds with L1 >= ceil(eps/p) and
         fraction with L2 <= (4/eps^2)(ln n)^2, plus a per-run check that the
         outer complement of a connected size-ceil(eps/p) witness set stays
         below its closed-form bound.
  sub:   rho = (1-eps)/(np); fraction with L1 < (4/eps^2)(ln n)^2 (and the
         sharper contrast fraction with L1 < eps/p).
  hd:    the super measurement with a hereditary-degree report attached; a
         falsified hypothesis flags the summary but the measurement proceeds.

Whp acceptance is operationalized as a fraction of seeds at fixed n; every
emitted artifact embeds the certification profile it ran under.
"""

import json
import math
import sys
from dataclasses import dataclass
from statistics import median
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from .certify import PseudoRandomProfile, hd_check
# the certification every experiment attaches: tightest slacks when the exact
# co-degree scan is feasible, measured-lower-bound slacks (sampled mode, a2
# undecided) beyond the cap
from .certify import tightest_profile as derive_profile
from .errors import InvalidParameter, NotCertified, require_density, require_finite, require_int
from .graph import Graph
from .lemmas import ceil_eps_over_p, grow_connected_set, outer_complement_check
from .percolate import BernoulliStream, dfs_percolate, largest_two

SCHEMA = "percolab/1"


def seed_block(seeds: Union[Sequence[int], Tuple[int, int]]) -> List[int]:
    """Normalize either an explicit list or (base, count) to a seed list."""
    if isinstance(seeds, tuple) and len(seeds) == 2:
        base = require_int("base seed", seeds[0])
        return [base + i for i in range(require_int("replication count", seeds[1], 1))]
    out = [require_int("seed", s) for s in seeds]
    if not out:
        raise InvalidParameter("need at least one seed")
    _refuse_repeats("seed", out)
    return out


def _refuse_repeats(name: str, values: list) -> None:
    """Refuse a value listed twice: it would run, and count, twice."""
    seen = set()
    for v in values:
        if v in seen:
            raise InvalidParameter(f"{name} {v!r} is listed twice")
        seen.add(v)


@dataclass
class SweepConfig:
    source: Graph
    p: float
    rho_grid: List[float]  # multipliers c, rho = c/(np)
    seeds: Union[Sequence[int], Tuple[int, int]]
    epsilon: float = 0.3
    clip_rho: bool = False
    out: Optional[str] = None


@dataclass
class Run:
    """One percolation run: a sweep CSV row, or a trial row with its outer check."""
    c: float
    rho: float
    seed: int
    retained: int
    L1: int
    L2: int
    outer_ok: Optional[bool] = None


@dataclass
class SweepResult:
    rows: List[Run]
    aggregates: Dict[float, dict]
    c_star: Optional[float]
    giant_size: int
    l2_bound: float
    n: int
    p: float
    epsilon: float
    grid: List[float]
    seeds: List[int]
    profile: PseudoRandomProfile


def _rho_for(c: float, n: int, p: float, clip: bool) -> float:
    if c < 0:
        raise InvalidParameter(f"multiplier must be finite and >= 0, got {c}")
    rho = c / (n * p)
    if rho >= 1.0:
        if not clip:
            raise InvalidParameter(f"c = {c} gives rho = {rho:.4g} >= 1")
        rho = 1.0
    return rho


def _thresholds(n: int, p: float, epsilon: float) -> Tuple[float, float, int, float]:
    """(p, epsilon, giant_size, l2_bound): the gated p and epsilon, the L1 a
    giant must reach, ceil(eps/p), and the (4/eps^2)(ln n)^2 bounding L2."""
    p = require_density(p)
    [epsilon] = require_finite(epsilon=epsilon)
    giant_size = ceil_eps_over_p(epsilon, p)
    l2_bound = 0.0
    if n > 1:
        try:
            l2_bound = (4.0 / epsilon ** 2) * math.log(n) ** 2
        except (ZeroDivisionError, OverflowError):
            raise InvalidParameter(f"eps^2 underflows or overflows at epsilon = {epsilon}") from None
        require_finite(l2_bound=l2_bound)
    return p, epsilon, giant_size, l2_bound


def _runs(g: Graph, grid: Sequence[float], rhos: Sequence[float], seeds: List[int],
          outer: Optional[Callable[[List[int]], Optional[bool]]] = None) -> List[Run]:
    """One percolation run per (c, seed), returned grid-major: the CSV row
    order. The runs are made seed by seed, each seed's in ascending rho on
    one walk (`BernoulliStream.coupled`). With `outer`, each run's outer_ok
    is outer(its largest component)."""
    runs: List[Optional[Run]] = [None] * (len(grid) * len(seeds))
    ascending = sorted(range(len(rhos)), key=rhos.__getitem__)
    for s, seed in enumerate(seeds):
        streams = BernoulliStream.coupled(rhos, seed)
        for j in ascending:
            outcome = dfs_percolate(g, streams[j])
            run = Run(grid[j], rhos[j], seed, len(outcome.ids), *largest_two(outcome))
            if outer is not None:
                run.outer_ok = outer(outcome.largest)
            runs[j * len(seeds) + s] = run
    return runs


def aggregate_rows(rows: List[Run], giant_size: int, l2_bound: float) -> Dict[float, dict]:
    """Per-multiplier aggregates, recomputable from the CSV rows."""
    by_c: Dict[float, List[Run]] = {}
    for r in rows:
        by_c.setdefault(r.c, []).append(r)
    out = {}
    for c, rs in sorted(by_c.items()):
        l1s = [r.L1 for r in rs]
        l2s = [r.L2 for r in rs]
        k = len(rs)
        out[c] = {
            "runs": k,
            "mean_L1": sum(l1s) / k,
            "median_L1": median(l1s),
            "mean_L2": sum(l2s) / k,
            "median_L2": median(l2s),
            "giant_freq": sum(r.L1 >= giant_size for r in rs) / k,
            "l2_bound_freq": sum(r.L2 <= l2_bound for r in rs) / k,
        }
    return out


def run_sweep(cfg: SweepConfig) -> SweepResult:
    g = cfg.source
    p, epsilon, giant_size, l2_bound = _thresholds(g.n, cfg.p, cfg.epsilon)
    seeds = seed_block(cfg.seeds)
    grid = [require_finite(multiplier=c)[0] for c in cfg.rho_grid]
    _refuse_repeats("multiplier", [float(c) for c in grid])
    rhos = [_rho_for(c, g.n, p, cfg.clip_rho) for c in grid]
    profile = derive_profile(g, p)
    rows = _runs(g, grid, rhos, seeds)
    aggregates = aggregate_rows(rows, giant_size, l2_bound)
    c_star = next((c for c in sorted(aggregates) if aggregates[c]["giant_freq"] >= 0.5), None)
    result = SweepResult(rows=rows, aggregates=aggregates, c_star=c_star, giant_size=giant_size,
                         l2_bound=l2_bound, n=g.n, p=p, epsilon=epsilon,
                         grid=grid, seeds=seeds, profile=profile)
    if cfg.out:
        emit_csv(result, cfg.out + ".csv")
        emit_json(result, cfg.out + ".json")
    return result


def emit_csv(result: SweepResult, path):
    """One data row per run: c,rho,seed,retained,L1,L2 (floats via repr)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("c,rho,seed,retained,L1,L2\n")
        for r in result.rows:
            fh.write(f"{r.c!r},{r.rho!r},{r.seed},{r.retained},{r.L1},{r.L2}\n")


def _header(kind: str, result) -> dict:
    """The keys every sweep and trial artifact shares."""
    return {"schema": SCHEMA, "kind": kind, "n": result.n, "p": result.p,
            "epsilon": result.epsilon, "giant_size": result.giant_size,
            "l2_bound": result.l2_bound, "profile": result.profile.to_dict()}


def emit_json(result: SweepResult, path):
    write_json(dict(_header("sweep", result), grid=result.grid, seeds=result.seeds,
                    aggregates={repr(c): a for c, a in result.aggregates.items()},
                    c_star=result.c_star), path)


@dataclass
class TrialSummary:
    kind: str  # "super" | "sub" | "hd"
    n: int
    p: float
    epsilon: float
    rho: float
    rows: List[Run]
    giant_size: int
    l2_bound: float
    frac_giant: float
    frac_l2_bound: float
    frac_small: Optional[float]  # fraction with L1 < eps/p
    max_L1: int
    frac_outer_ok: Optional[float]
    profile: PseudoRandomProfile
    hd_report: Optional[object] = None
    hd_falsified: Optional[bool] = None

    def to_dict(self) -> dict:
        d = dict(_header(f"trial_{self.kind}", self), rho=self.rho,
                 frac_giant=self.frac_giant, frac_l2_bound=self.frac_l2_bound,
                 frac_small=self.frac_small, max_L1=self.max_L1,
                 frac_outer_ok=self.frac_outer_ok,
                 rows=[[r.seed, r.retained, r.L1, r.L2, r.outer_ok] for r in self.rows])
        if self.kind == "hd":
            d["hd_falsified"] = self.hd_falsified
            if self.hd_report is not None:
                d["hd_worst_ratio"] = self.hd_report.worst_ratio
                d["hd_beta"] = self.hd_report.beta
                d["hd_witness"] = list(self.hd_report.witness) if self.hd_report.witness else None
        return d


def supercritical_trial(g: Graph, p: float, epsilon: float, seeds,
                        profile: Optional[PseudoRandomProfile] = None,
                        check_outer: bool = True) -> TrialSummary:
    """rho = (1+eps)/(np): giant and uniqueness fractions over the seed block."""
    return _trial("super", g, p, epsilon, seeds, profile, check_outer)


def subcritical_trial(g: Graph, p: float, epsilon: float, seeds,
                      profile: Optional[PseudoRandomProfile] = None) -> TrialSummary:
    """rho = (1-eps)/(np): every component should stay polylog-small."""
    return _trial("sub", g, p, epsilon, seeds, profile, check_outer=False)


def hd_uniqueness_trial(g: Graph, p: float, epsilon: float, beta: float, seeds,
                        profile: Optional[PseudoRandomProfile] = None,
                        check_outer: bool = True) -> TrialSummary:
    """The super measurement under the hereditary-degree hypothesis set (no
    a3 requirement); a falsified HD check (10 subsets, seed 0) flags the
    summary with a witness and the measurement still runs."""
    return _trial("hd", g, p, epsilon, seeds, profile, check_outer, beta=beta)


def _trial(kind: str, g: Graph, p: float, epsilon: float, seeds, profile, check_outer: bool,
           beta=None) -> TrialSummary:
    """The trial of `kind`, a one-column sweep: sub needs a3 and runs at
    c = 1 - eps; super and hd need a1 and a2 not falsified and run at
    c = 1 + eps, hd after a hereditary-degree check. A given profile must be
    certified for g.n and p."""
    p, epsilon, giant_size, l2_bound = _thresholds(g.n, p, epsilon)
    seeds = seed_block(seeds)
    report = hd_check(g, beta=beta, trials=10, p=p) if kind == "hd" else None
    if profile is None:
        profile = derive_profile(g, p)
    elif (profile.n, profile.p) != (g.n, p):
        raise NotCertified(f"profile is for n={profile.n}, p={profile.p}, not n={g.n}, p={p}")
    if kind == "sub":
        profile.require("a3")
    else:
        profile.require("a1", "a2")
    c = 1 - epsilon if kind == "sub" else 1 + epsilon
    rho = _rho_for(c, g.n, p, clip=False)

    def outer(comp: List[int]) -> Optional[bool]:
        # a witness set C of size ceil(eps/p) grown inside the largest component
        if len(comp) < giant_size:
            return None
        c_set = grow_connected_set(g, comp[0], giant_size, within=comp)
        return outer_complement_check(g, c_set, profile, epsilon).passed

    rows = _runs(g, [c], [rho], seeds, outer if check_outer else None)
    column = aggregate_rows(rows, giant_size, l2_bound)[c]
    k = len(rows)
    checked = [r.outer_ok for r in rows if r.outer_ok is not None]
    return TrialSummary(
        kind=kind, n=g.n, p=p, epsilon=epsilon, rho=rho, rows=rows,
        giant_size=giant_size, l2_bound=l2_bound,
        frac_giant=column["giant_freq"],
        frac_l2_bound=column["l2_bound_freq"],
        # integer L1 < eps/p is equivalent to L1 < ceil(eps/p); the integer
        # form avoids float noise when eps/p lands on an integer
        frac_small=sum(r.L1 < giant_size for r in rows) / k,
        max_L1=max(r.L1 for r in rows),
        frac_outer_ok=(sum(checked) / len(checked)) if checked else None,
        profile=profile, hd_report=report,
        hd_falsified=None if report is None else report.falsified)


def emit_trial_json(summary: TrialSummary, path):
    write_json(summary.to_dict(), path)


def write_json(payload: dict, path=None):
    """The one writer of JSON artifacts: strict (NaN and inf raise ValueError),
    keys sorted, indented, newline-terminated; stdout when no path is given."""
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
    if not path:
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
