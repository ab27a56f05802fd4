"""Span recorder for the traced run, installed from the benchmark's own files.

`Tracer.install` rebinds the public percolab functions named in TARGETS with
wrappers that record one span per call: name, start, end, parent span, phase
and run id, plus counters taken from the call's arguments and result. The
copies that other modules imported by name (`experiment.dfs_percolate`,
`certify.max_co_degree`, the package namespace, ...) are rebound too, so
calls between layers are seen. Spans stay in memory and are written out once,
when the run ends.

A span's self time is its duration minus the time its child spans cover.
"""

import importlib
import inspect
import json
import os
import statistics
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import percolab

# import_module, not attribute access: the package re-exports the function
# `certify` over its submodule of the same name
graph, certify, percolate, lemmas, experiment = (
    importlib.import_module(f"percolab.{m}")
    for m in ("graph", "certify", "percolate", "lemmas", "experiment"))

_MODULES = (percolab, graph, certify, percolate, lemmas, experiment)


def _codegree_counts(result, args) -> dict:
    """Pairs scanned and bytes moved by max_co_degree, computed from the
    algorithm its docstring documents (not measured): exact mode builds one
    packed bitset row of ceil(n/8) bytes per vertex and streams one such row
    per pair; sampled mode does the same for all pairs among the top-degree
    1% of vertices, then intersects `sample_pairs` pairs of int32 neighbor
    rows, counted here at the mean degree."""
    g = args["g"]
    width = (g.n + 7) // 8
    if result.mode == "exact":
        pairs = g.n * (g.n - 1) // 2
        return {"pairs": pairs, "bytes": g.n * width + pairs * width}
    top = max(2, g.n // 100)
    top_pairs = top * (top - 1) // 2
    sampled = args["sample_pairs"]
    return {"pairs": top_pairs + sampled,
            "bytes": (top + top_pairs) * width + sampled * 16 * g.edge_count // g.n}


def _report_counts(result, args) -> dict:
    return {"checked": result.checked_count, "false": int(not result.passed)}


def _trial_counts(result, args) -> dict:
    return {"rows": len(result.rows)}


# (module, function, span name, counters(result, bound arguments) or None)
TARGETS = [
    (graph, "generate", lambda a: f"graph.generate.{a['spec'].kind}",
     lambda r, a: {"edges": r.edge_count}),
    (graph, "load_edge_list", "graph.load",
     lambda r, a: {"bytes": os.path.getsize(a["path"])}),
    (graph, "save_edge_list", "graph.save",
     lambda r, a: {"bytes": os.path.getsize(a["path"])}),
    (graph, "max_co_degree", "graph.max_co_degree", _codegree_counts),
    (certify, "estimate_slacks", "certify.estimate_slacks", None),
    (certify, "certify", "certify.certify", None),
    (certify, "hd_check", "certify.hd_check", None),
    (percolate, "dfs_percolate", "percolate.dfs",
     lambda r, a: {"bits": r.bits_consumed, "retained": len(r.retained), "n": a["g"].n}),
    (percolate, "oracle_components", "percolate.oracle", None),
    (lemmas, "grow_connected_set", "lemmas.grow", None),
    (lemmas, "outer_complement_check", "lemmas.outer", _report_counts),
    (lemmas, "expansion_check", "lemmas.expansion", _report_counts),
    (lemmas, "variance_bound_check", "lemmas.variance", _report_counts),
    (lemmas, "xi_count_check", "lemmas.xi", _report_counts),
    (experiment, "derive_profile", "experiment.derive_profile", None),
    (experiment, "run_sweep", "experiment.sweep", _trial_counts),
    (experiment, "supercritical_trial", "experiment.trial", _trial_counts),
    (experiment, "subcritical_trial", "experiment.trial", _trial_counts),
    (experiment, "emit_csv", "experiment.emit", None),
    (experiment, "emit_json", "experiment.emit", None),
    (experiment, "emit_trial_json", "experiment.emit", None),
]


@dataclass
class Span:
    id: int
    parent: Optional[int]
    name: str
    phase: str
    start: float
    end: float = 0.0
    counts: Dict[str, int] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.phase = "setup"
        self.spans: List[Span] = []
        self._open: List[int] = []

    def install(self):
        for module, fname, name, counter in TARGETS:
            original = getattr(module, fname)
            wrapper = self._wrap(original, name, counter)
            for m in _MODULES:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapper)

    def _wrap(self, fn, name, counter):
        signature = inspect.signature(fn)

        def traced(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            label = name(bound.arguments) if callable(name) else name
            span = Span(id=len(self.spans), parent=self._open[-1] if self._open else None,
                        name=label, phase=self.phase, start=time.perf_counter())
            self.spans.append(span)
            self._open.append(span.id)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._open.pop()
            if counter is not None:
                span.counts = counter(result, bound.arguments)
            return result

        traced.__wrapped__ = fn
        return traced

    def write(self, path, origin: float):
        rows = [{"run": self.run_id, "id": s.id, "parent": s.parent, "name": s.name,
                 "phase": s.phase, "start": s.start - origin, "end": s.end - origin,
                 **s.counts} for s in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(rows, fh)
            fh.write("\n")


class Profile:
    """Per-name totals over a set of spans."""

    def __init__(self, spans: List[Span]):
        child_time: Dict[int, float] = {}
        for s in spans:
            if s.parent is not None:
                child_time[s.parent] = child_time.get(s.parent, 0.0) + s.duration
        self.total: Dict[str, float] = {}
        self.self_time: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        self.durations: Dict[str, List[float]] = {}
        self.counts: Dict[str, Dict[str, int]] = {}
        for s in spans:
            self.total[s.name] = self.total.get(s.name, 0.0) + s.duration
            self.self_time[s.name] = (self.self_time.get(s.name, 0.0)
                                      + s.duration - child_time.get(s.id, 0.0))
            self.calls[s.name] = self.calls.get(s.name, 0) + 1
            self.durations.setdefault(s.name, []).append(s.duration)
            bucket = self.counts.setdefault(s.name, {})
            for k, v in s.counts.items():
                bucket[k] = bucket.get(k, 0) + v
        self.top_level = sum(s.duration for s in spans if s.parent is None)

    def t(self, name: str) -> float:
        return self.total.get(name, 0.0)

    def own(self, name: str) -> float:
        return self.self_time.get(name, 0.0)

    def count(self, name: str, key: str) -> int:
        return self.counts.get(name, {}).get(key, 0)

    def sum_count(self, prefix: str, key: str) -> int:
        return sum(c.get(key, 0) for n, c in self.counts.items() if n.startswith(prefix))

    def quantile_ms(self, name: str, q: int) -> Optional[float]:
        """The q-th percentile of per-call durations in ms (None without calls)."""
        d = self.durations.get(name, [])
        if not d:
            return None
        if len(d) == 1:
            return d[0] * 1e3
        return statistics.quantiles(d, n=100, method="inclusive")[q - 1] * 1e3

    def largest_self(self) -> str:
        return max(self.self_time, key=self.self_time.get)


def _rate(num, seconds):
    return num / seconds if seconds > 0 else None


def layer_metrics(measured: Profile, gate: Profile, traced_total_s: float,
                  untraced_total_s: float, oracle_mismatches: int) -> Dict[str, tuple]:
    """Every per-layer metric as name -> (value or None, unit). `measured`
    covers the set-up and the timed batch, `gate` the correctness gate."""
    m = measured
    gnp_s = m.t("graph.generate.gnp")
    load_s, save_s = m.t("graph.load"), m.t("graph.save")
    co_s = m.t("graph.max_co_degree")
    dfs_s = m.t("percolate.dfs")
    bits = m.count("percolate.dfs", "bits")
    retained = m.count("percolate.dfs", "retained")
    exp_s = m.t("lemmas.expansion")
    return {
        "graph.generate.gnp_s": (gnp_s, "s"),
        "graph.gnp_edges_per_s": (_rate(m.count("graph.generate.gnp", "edges"), gnp_s), "1/s"),
        "graph.generate.paley_s": (m.t("graph.generate.paley"), "s"),
        "graph.generate.perturbed_s": (m.t("graph.generate.near_regular_perturbed"), "s"),
        "graph.load_s": (load_s, "s"),
        "graph.load_mb_per_s": (_rate(m.count("graph.load", "bytes") / 1e6, load_s), "MB/s"),
        "graph.save_s": (save_s, "s"),
        "graph.save_mb_per_s": (_rate(m.count("graph.save", "bytes") / 1e6, save_s), "MB/s"),
        "graph.max_co_degree_s": (co_s, "s"),
        "graph.max_co_degree_calls": (m.calls.get("graph.max_co_degree", 0), "count"),
        "graph.codegree_pairs": (m.count("graph.max_co_degree", "pairs"), "count"),
        "graph.codegree_bytes": (m.count("graph.max_co_degree", "bytes"), "count"),
        "graph.codegree_pairs_per_s": (_rate(m.count("graph.max_co_degree", "pairs"), co_s), "1/s"),
        "certify.estimate_slacks_self_s": (m.own("certify.estimate_slacks"), "s"),
        "certify.certify_self_s": (m.own("certify.certify"), "s"),
        "certify.hd_check_s": (m.t("certify.hd_check"), "s"),
        "percolate.dfs_calls": (m.calls.get("percolate.dfs", 0), "count"),
        "percolate.dfs_s": (dfs_s, "s"),
        "percolate.dfs_ms_p50": (m.quantile_ms("percolate.dfs", 50), "ms"),
        "percolate.dfs_ms_p90": (m.quantile_ms("percolate.dfs", 90), "ms"),
        "percolate.bits_consumed": (bits, "count"),
        "percolate.retained": (retained, "count"),
        "percolate.retained_frac": (retained / bits if bits else None, "ratio"),
        "percolate.vertices_per_s": (_rate(bits, dfs_s), "1/s"),
        "percolate.oracle_s": (gate.t("percolate.oracle"), "s"),
        "percolate.oracle_mismatches": (oracle_mismatches, "count"),
        "lemmas.outer_calls": (m.calls.get("lemmas.outer", 0), "count"),
        "lemmas.outer_s": (m.t("lemmas.outer"), "s"),
        "lemmas.grow_s": (m.t("lemmas.grow"), "s"),
        "lemmas.expansion_s": (exp_s, "s"),
        "lemmas.expansion_sets_per_s": (_rate(m.count("lemmas.expansion", "checked"), exp_s), "1/s"),
        "lemmas.variance_s": (m.t("lemmas.variance"), "s"),
        "lemmas.xi_s": (m.t("lemmas.xi"), "s"),
        "lemmas.checked": (m.sum_count("lemmas.", "checked"), "count"),
        "lemmas.false_reports": (m.sum_count("lemmas.", "false"), "count"),
        "experiment.derive_profile_self_s": (m.own("experiment.derive_profile"), "s"),
        "experiment.sweep_self_s": (m.own("experiment.sweep"), "s"),
        "experiment.trial_self_s": (m.own("experiment.trial"), "s"),
        "experiment.emit_s": (m.t("experiment.emit"), "s"),
        "experiment.rows": (m.count("experiment.sweep", "rows")
                            + m.count("experiment.trial", "rows"), "count"),
        "trace.overhead_s": (traced_total_s - untraced_total_s, "s"),
        "trace.coverage": (m.top_level / traced_total_s, "ratio"),
    }


# Counts that must repeat exactly between runs of the same code and seed.
EXACT_COUNTS = (
    "graph.max_co_degree_calls", "graph.codegree_pairs", "graph.codegree_bytes",
    "percolate.dfs_calls", "percolate.bits_consumed", "percolate.retained",
    "lemmas.outer_calls", "lemmas.checked", "lemmas.false_reports", "experiment.rows",
)
