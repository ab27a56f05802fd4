"""The three benchmark workloads: instances, set-up, the timed batch and the
correctness gate.

Importing this module imports percolab (and numpy with it), so run.py imports
it inside the set-up timer: `setup_s` starts before `import percolab`.

Every workload derives its instances from one workload seed. The default seed
reproduces the reference instances listed in README.md; any other seed changes
every gnp / near_regular_perturbed seed and every seed-block base.
"""

import hashlib
import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, List

import numpy as np

import percolab as P
from percolab import experiment, rng

DEFAULT_SEED = 1
EPS = 0.3


def block_base(default_base: int, count: int, seed: int) -> int:
    """Base of the seed block for a workload seed: `default_base` at the
    default seed, shifted by whole blocks otherwise. Taken mod 2**32 so that
    seeds below the default still give non-negative stream seeds."""
    return (default_base + count * (seed - DEFAULT_SEED)) % 2 ** 32


class Checks:
    """Ledger of operations: every batch operation and every gate check is
    one attempted operation; a raise or a disagreeing check is a failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self.failed_by_kind: Dict[str, int] = {}

    def ops(self, count: int, ok: bool, what: str):
        self.attempted += count
        if not ok:
            self.failed += count
            self.failures.append(f"{what}: {count} operations failed")

    def check(self, ok, kind: str, what: str):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failed_by_kind[kind] = self.failed_by_kind.get(kind, 0) + 1
            self.failures.append(f"{kind}: {what}")


@dataclass
class Batch:
    """What one timed batch produced."""

    value: object
    artifacts: List[Path]
    ops: int
    counts: Dict[str, int] = field(default_factory=dict)

    def digest(self) -> str:
        h = hashlib.sha256()
        for path in sorted(self.artifacts):
            h.update(path.name.encode() + b"\0" + path.read_bytes())
        return h.hexdigest()


def _spec_dict(spec: P.GeneratorSpec) -> dict:
    return {k: v for k, v in asdict(spec).items() if v is not None}


def _oracle_check(g, rho, seed, checks: Checks, row=None, label=""):
    """Cross-check one percolation run against the union-find oracle on the
    retained set drawn independently of the DFS (u_v < rho)."""
    outcome = P.dfs_percolate(g, P.BernoulliStream(rho=rho, seed=seed))
    retained = np.flatnonzero(rng.uniforms(seed, g.n) < rho).tolist()
    oracle = P.oracle_components(g, retained)
    sizes = sorted((len(c) for c in oracle), reverse=True) + [0, 0]
    ok = (outcome.bits_consumed == g.n and outcome.retained == retained
          and outcome.components == oracle)
    if row is not None:
        ok = ok and (row.retained, row.L1, row.L2) == (len(retained), sizes[0], sizes[1])
    checks.check(ok, "oracle", f"{label} rho={rho!r} seed={seed}")


class SweepSparse:
    """run_sweep over a sparse G(n, p) host that is loaded from an edge list."""

    name = "sweep_sparse"
    dominant = "percolate.dfs"  # expected largest self time
    grid = [0.5, 0.7, 0.9, 1.1, 1.3, 1.5]
    runs_per_c = 15
    oracle_seeds = 3

    def __init__(self, seed: int, out: Path):
        self.seed = seed
        self.out = out
        self.host = P.GeneratorSpec(kind="gnp", n=50_000, p=2e-4, seed=seed)
        self.seeds = (block_base(0, self.runs_per_c, seed), self.runs_per_c)
        self.edge_list = out / f"{self.name}-host.txt"

    def describe(self) -> dict:
        return {"host": _spec_dict(self.host), "setup": "load_edge_list",
                "grid": self.grid, "seeds": list(self.seeds), "epsilon": EPS,
                "batch": f"{len(self.grid) * self.runs_per_c} percolation runs"}

    def prepare(self):
        P.save_edge_list(P.generate(self.host), self.edge_list)

    def setup(self):
        return P.load_edge_list(self.edge_list)

    def batch(self, g) -> Batch:
        stem = self.out / self.name
        result = experiment.run_sweep(experiment.SweepConfig(
            source=g, p=self.host.p, rho_grid=self.grid, seeds=self.seeds,
            epsilon=EPS, out=str(stem)))
        return Batch(result, [Path(f"{stem}.csv"), Path(f"{stem}.json")],
                     ops=len(result.rows) + 1,  # the runs and the certification
                     counts={"experiment.rows": len(result.rows),
                             "percolate.retained": sum(r.retained for r in result.rows)})

    def gate(self, g, batch: Batch, checks: Checks):
        ref = P.generate(self.host)
        checks.check(ref.n == g.n and ref.edge_count == g.edge_count
                     and np.array_equal(ref.offsets, g.offsets)
                     and np.array_equal(ref.neighbors, g.neighbors),
                     "io", "loaded host differs from the generated one")
        rows = batch.value.rows
        checks.check(len(rows) == len(self.grid) * self.runs_per_c, "rows",
                     f"{len(rows)} sweep rows")
        by_seed: Dict[int, list] = {}
        for r in rows:
            by_seed.setdefault(r.seed, []).append(r)
        for s, rs in sorted(by_seed.items()):
            rs.sort(key=lambda r: r.c)
            checks.check(all(a.retained <= b.retained for a, b in zip(rs, rs[1:])),
                         "coupling", f"retained decreases in c at seed {s}")
        for s in sorted(by_seed)[:self.oracle_seeds]:
            for r in by_seed[s]:
                _oracle_check(g, r.rho, s, checks, row=r, label=f"c={r.c!r}")


class TrialsDense:
    """Supercritical and subcritical trials on the acceptance-suite instance."""

    name = "trials_dense"
    dominant = "graph.generate.gnp"
    runs = 50
    oracle_sample = 10

    def __init__(self, seed: int, out: Path):
        self.seed = seed
        self.out = out
        self.host = P.GeneratorSpec(kind="gnp", n=30_000, p=0.03, seed=seed)
        self.seeds = (block_base(1000, self.runs, seed), self.runs)

    def describe(self) -> dict:
        return {"host": _spec_dict(self.host), "setup": "generate",
                "seeds": list(self.seeds), "epsilon": EPS, "check_outer": True,
                "batch": f"derive_profile + {2 * self.runs} percolation runs (super + sub)"}

    prepare = None

    def setup(self):
        return P.generate(self.host)

    def batch(self, g) -> Batch:
        p = self.host.p
        # one certification shared by both trials, as a caller running both
        # on one host does
        profile = experiment.derive_profile(g, p)
        sup = experiment.supercritical_trial(g, p, EPS, self.seeds, profile=profile,
                                             check_outer=True)
        experiment.emit_trial_json(sup, self.out / f"{self.name}-super.json")
        sub = experiment.subcritical_trial(g, p, EPS, self.seeds, profile=profile)
        experiment.emit_trial_json(sub, self.out / f"{self.name}-sub.json")
        rows = sup.rows + sub.rows
        outer = sum(r.outer_ok is not None for r in sup.rows)
        return Batch((sup, sub), [self.out / f"{self.name}-super.json",
                                  self.out / f"{self.name}-sub.json"],
                     ops=len(rows) + 1 + outer,  # runs, the certification, outer checks
                     counts={"experiment.rows": len(rows),
                             "percolate.retained": sum(r.retained for r in rows),
                             "lemmas.outer_calls": outer})

    def gate(self, g, batch: Batch, checks: Checks):
        step = self.runs // self.oracle_sample
        for summary in batch.value:
            rows = summary.rows
            checks.check(len(rows) == self.runs, "rows", f"{summary.kind}: {len(rows)} rows")
            for r in rows[::step]:
                _oracle_check(g, summary.rho, r.seed, checks, row=r, label=summary.kind)
            # the fractions must recompute from the emitted rows; criteria 2
            # and 4 stay as measured, so their 0.95 targets are not gated
            k = len(rows)
            outer = [r.outer_ok for r in rows if r.outer_ok is not None]
            recomputed = (
                sum(r.L1 >= summary.giant_size for r in rows) / k,
                sum(r.L2 <= summary.l2_bound for r in rows) / k,
                sum(r.L1 < summary.giant_size for r in rows) / k,
                max(r.L1 for r in rows),
                sum(outer) / len(outer) if outer else None,
            )
            reported = (summary.frac_giant, summary.frac_l2_bound, summary.frac_small,
                        summary.max_L1, summary.frac_outer_ok)
            checks.check(recomputed == reported, "fractions",
                         f"{summary.kind}: {reported} != {recomputed}")


class CertifyExact:
    """Exact certification, an edge-list round trip and the lemma scans."""

    name = "certify_exact"
    dominant = "graph.max_co_degree"
    paley_q = 1009
    expansion_m = 3
    # alpha0 and alpha are set so that every workload seed meets the bounds
    # and preconditions: at alpha=0.5 the xi precondition a_n <= alpha*p*n/2
    # leaves almost no room over max |deg - np| (50 against about 47 at
    # n=2000), and the n=200 expansion bound fails at alpha0=0.5 on seed 1.
    expansion_alpha0 = 0.7
    xi_alpha = 0.8
    hd_trials = 10

    def __init__(self, seed: int, out: Path):
        self.seed = seed
        self.out = out
        self.hosts = {
            "paley": (P.GeneratorSpec(kind="paley", q=self.paley_q), 0.5),
            "gnp2000": (P.GeneratorSpec(kind="gnp", n=2000, p=0.1, seed=seed), 0.1),
            "perturbed": (P.GeneratorSpec(kind="near_regular_perturbed", n=2000,
                                          p=0.08, seed=seed), 0.08),
            "gnp200": (P.GeneratorSpec(kind="gnp", n=200, p=0.1, seed=seed), 0.1),
        }
        self.edge_list = out / f"{self.name}-gnp2000.txt"
        self.report = out / f"{self.name}.json"

    def describe(self) -> dict:
        return {"hosts": {k: dict(_spec_dict(s), target_p=p) for k, (s, p) in self.hosts.items()},
                "setup": "generate",
                "expansion": {"host": "gnp200", "m": self.expansion_m,
                              "alpha0": self.expansion_alpha0, "mode": "exhaustive"},
                "variance_xi": {"host": "gnp2000", "u_size": 1000, "alpha": self.xi_alpha},
                "hd_check": {"host": "gnp2000", "trials": self.hd_trials, "beta": EPS ** 5},
                "io": "save_edge_list -> load_edge_list of gnp2000"}

    prepare = None

    def setup(self):
        return {k: P.generate(spec) for k, (spec, _) in self.hosts.items()}

    def batch(self, graphs) -> Batch:
        profiles = {}
        for k, (_, p) in self.hosts.items():
            a_n, b_n = P.estimate_slacks(graphs[k], p)
            profiles[k] = P.certify(graphs[k], p, a_n, b_n)
        g = graphs["gnp2000"]
        P.save_edge_list(g, self.edge_list)
        loaded = P.load_edge_list(self.edge_list)
        u = rng.derived(self.seed, 0xA).choice(g.n, size=g.n // 2, replace=False).tolist()
        reports = {
            "expansion": P.expansion_check(graphs["gnp200"], profiles["gnp200"],
                                           m=self.expansion_m, alpha0=self.expansion_alpha0),
            "variance": P.variance_bound_check(g, u, profiles["gnp2000"]),
            "xi": P.xi_count_check(g, u, profiles["gnp2000"], alpha=self.xi_alpha),
        }
        hd = P.hd_check(g, beta=EPS ** 5, trials=self.hd_trials, seed=self.seed, p=0.1)
        payload = {"schema": experiment.SCHEMA, "kind": "benchmark_certify_exact",
                   "profiles": {k: json.loads(v.to_json()) for k, v in profiles.items()},
                   "lemmas": {k: r.to_dict() for k, r in reports.items()},
                   "hd": asdict(hd)}
        self.report.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                               encoding="utf-8")
        return Batch((profiles, loaded, reports, hd), [self.report, self.edge_list],
                     ops=len(profiles) + 1 + len(reports) + 1,
                     counts={"lemmas.checked": sum(r.checked_count for r in reports.values())})

    def gate(self, graphs, batch: Batch, checks: Checks):
        profiles, loaded, reports, _ = batch.value
        for k, prof in profiles.items():
            checks.check(prof.a1 and prof.a2 is True and prof.a3, "certify",
                         f"{k}: estimated slacks do not certify a1/a2/a3")
            co = P.max_co_degree(graphs[k])
            checks.check(co.value == prof.max_codegree
                         and P.co_degree(graphs[k], *co.pair) == co.value,
                         "codegree", f"{k}: co_degree{co.pair} vs {prof.max_codegree}")
        checks.check(profiles["paley"].max_codegree == (self.paley_q - 1) // 4,
                     "codegree", "paley maximum co-degree differs from (q-1)/4")
        g = graphs["gnp2000"]
        again = self.out / f"{self.name}-gnp2000-again.txt"
        P.save_edge_list(loaded, again)
        checks.check(again.read_bytes() == self.edge_list.read_bytes()
                     and np.array_equal(loaded.offsets, g.offsets)
                     and np.array_equal(loaded.neighbors, g.neighbors),
                     "io", "save -> load -> save is not byte-identical")
        again.unlink()
        exp = reports["expansion"]
        checks.check(exp.passed and exp.checked_count == math.comb(200, self.expansion_m),
                     "lemma", f"expansion: {exp.measured} vs {exp.bound}")
        for k in ("variance", "xi"):
            checks.check(reports[k].passed, "lemma",
                         f"{k}: {reports[k].measured} vs {reports[k].bound}")


WORKLOADS = {w.name: w for w in (SweepSparse, TrialsDense, CertifyExact)}
