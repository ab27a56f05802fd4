"""Degree / co-degree certification of a graph against a target density p.

The three verdicts are strict inequalities over measured extremes:

  a1:  min_degree  >  n*p - a_n
  a2:  max_codegree < n*p**2 + b_n      (exact co-degree mode only)
  a3:  max_degree  <  n*p + a_n

Ties fail. In sampled co-degree mode the measured maximum is only a lower
bound, so a2 cannot be decided: the verdict field is None, to be read as
"not falsified by sampling".

The hereditary-degree check is falsification-only: it samples uniform subsets
U of a fixed size plus one greedily built adversarial subset, and reports the
worst ratio max_{v in U} d(v, U) / (p|U|). "falsified" is a sound verdict;
"not falsified" is evidence, not proof.
"""

import json
import math
from dataclasses import asdict, dataclass
from typing import Optional, Tuple

import numpy as np

from .errors import InvalidParameter, NotCertified, require_density, require_finite, require_int
from .graph import CoDegreeResult, Graph, degrees_into, max_co_degree, require_exact_codegree
from .rng import derived

HD_SUBSET_FRACTION = 0.9  # |U| / n for every hd_check subset


@dataclass(frozen=True)
class PseudoRandomProfile:
    n: int
    p: float
    a_n: float
    b_n: float
    min_degree: int
    max_degree: int
    max_codegree: int
    codegree_mode: str  # "exact" | "sampled"
    a1: bool
    a2: Optional[bool]  # None in sampled mode: not falsified, not decided
    a3: bool

    def to_dict(self) -> dict:
        return asdict(self)

    def require(self, *verdicts: str):
        """Raise NotCertified naming each of `verdicts` ("a1", "a2", "a3") that
        is False. A verdict holds unless it is False, so a sampled a2 = None
        (not falsified) passes."""
        failed = [v for v in verdicts if getattr(self, v) is False]
        if failed:
            raise NotCertified(f"profile falsifies {', '.join(failed)} "
                               f"(need {', '.join(verdicts)} not falsified)")

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True, allow_nan=False)


def certify(g: Graph, p: float, a_n: float, b_n: float) -> PseudoRandomProfile:
    """Measure degree/co-degree extremes and evaluate the three verdicts."""
    p = require_density(p)
    a_n, b_n = require_finite(a_n=a_n, b_n=b_n)
    return _verdicts(g, p, a_n, b_n, max_co_degree(g))


def estimate_slacks(g: Graph, p: float) -> Tuple[float, float]:
    """Tightest (a_n, b_n) making all three verdicts strictly true.

    Starts from the measured gaps and nudges upward by ulps until the strict
    inequalities hold, so certify(g, p, a_n, b_n) round-trips to all-true.
    """
    p = require_density(p)
    require_exact_codegree(g)
    return _slacks(g, p, max_co_degree(g))


def tightest_profile(g: Graph, p: float) -> PseudoRandomProfile:
    """certify(g, p, *estimate_slacks(g, p)) from one co-degree scan.

    Where max_co_degree samples, b_n is fitted to a lower bound of the
    maximum co-degree, and a2 comes out None (not falsified).
    """
    p = require_density(p)
    co = max_co_degree(g)
    a_n, b_n = _slacks(g, p, co)
    return _verdicts(g, p, a_n, b_n, co)


def _verdicts(g: Graph, p: float, a_n: float, b_n: float,
              co: CoDegreeResult) -> PseudoRandomProfile:
    min_degree, max_degree = _degree_extremes(g)
    a1 = min_degree > g.n * p - a_n
    a3 = max_degree < g.n * p + a_n
    a2 = co.value < g.n * p * p + b_n if co.mode == "exact" else None
    if a2 is None and co.value >= g.n * p * p + b_n:
        a2 = False  # sampled lower bound already breaks the inequality
    return PseudoRandomProfile(
        n=g.n, p=p, a_n=a_n, b_n=b_n,
        min_degree=min_degree, max_degree=max_degree,
        max_codegree=co.value, codegree_mode=co.mode,
        a1=bool(a1), a2=a2, a3=bool(a3),
    )


def _slacks(g: Graph, p: float, co: CoDegreeResult) -> Tuple[float, float]:
    min_degree, max_degree = _degree_extremes(g)
    a_n = max(g.n * p - min_degree, max_degree - g.n * p, 0.0)
    while not (min_degree > g.n * p - a_n and max_degree < g.n * p + a_n):
        a_n = _bump(a_n, g.n * p)
    b_n = co.value - g.n * p * p
    while not co.value < g.n * p * p + b_n:
        b_n = _bump(b_n, g.n * p * p)
    return a_n, b_n


def _degree_extremes(g: Graph) -> Tuple[int, int]:
    deg = g.degrees()
    return (int(deg.min()), int(deg.max())) if g.n else (0, 0)


def _bump(x: float, scale: float) -> float:
    # next float after x, stepping at least one ulp of `scale`: a tie like
    # min_degree == n*p needs a_n near ulp(n*p), and nextafter alone from a
    # tiny x would crawl there one subnormal at a time
    step = math.ulp(scale) if scale > 0 else 5e-324
    return max(math.nextafter(x, math.inf), x + step)


@dataclass(frozen=True)
class HDReport:
    beta: float
    subset_fraction: float
    trials: int
    worst_ratio: float
    falsified: bool
    witness: Optional[Tuple[object, int]]  # (subset label, vertex)


def hd_check(g: Graph, beta: float, p: float, trials: int = 50, seed: int = 0) -> HDReport:
    """Sample-falsify max_{v in U} d(v, U) < (1 + beta) * p|U| over large U.

    Tests `trials` uniform subsets of size floor(HD_SUBSET_FRACTION * n) plus
    one greedy adversarial subset, against the target density p. Per-trial
    subsets use derived streams (seed, trial), so the report is independent
    of evaluation order. Needs a finite beta and integers trials >= 1, seed >= 0.
    """
    p = require_density(p)
    [beta] = require_finite(beta=beta)
    trials = require_int("trials", trials, 1)
    seed = require_int("seed", seed)
    size = int(HD_SUBSET_FRACTION * g.n)
    if size < 1:
        raise InvalidParameter(f"subset of size {size} from n={g.n}")
    worst = 0.0
    witness = None  # the first subset and vertex that falsify

    def consider(label, in_u):
        nonlocal worst, witness
        d = degrees_into(g, in_u)
        d[~in_u] = -1
        v = int(np.argmax(d))
        ratio = float(d[v]) / (p * size)
        if ratio > worst:
            worst = ratio
        if ratio >= 1.0 + beta and witness is None:
            witness = (label, v)

    for t in range(trials):
        u_idx = derived(seed, t).choice(g.n, size=size, replace=False)
        in_u = np.zeros(g.n, dtype=bool)
        in_u[u_idx] = True
        consider(t, in_u)

    # Adversarial subset: drop the n-|U| vertices with least degree into the
    # current U, iterated 3 times: keeps the high-in-degree core.
    in_u = np.ones(g.n, dtype=bool)
    for _ in range(3):
        d = degrees_into(g, in_u)
        d_masked = np.where(in_u, d, np.iinfo(np.int64).max)
        drop = np.argsort(d_masked, kind="stable")[: g.n - size]
        in_u = np.ones(g.n, dtype=bool)
        in_u[drop] = False
    consider("adversarial", in_u)

    return HDReport(beta=beta, subset_fraction=HD_SUBSET_FRACTION, trials=trials,
                    worst_ratio=worst, falsified=witness is not None, witness=witness)
