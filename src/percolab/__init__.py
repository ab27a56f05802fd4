"""percolab: site percolation on pseudo-random graphs.

Construction and certification of ground graphs, DFS exploration of the
percolated vertex set with epoch accounting, deterministic bound checks, and
Monte Carlo experiments around the 1/(np) threshold.
"""

from .certify import HDReport, PseudoRandomProfile, certify, estimate_slacks, hd_check
from .errors import PercolabError
from .graph import (
    CoDegreeResult,
    GeneratorSpec,
    Graph,
    co_degree,
    generate,
    load_edge_list,
    max_co_degree,
    save_edge_list,
)
from .lemmas import (
    LemmaReport,
    binomial_stream_check,
    expansion_check,
    inclusion_exclusion_check,
    inclusion_exclusion_lower_bound,
    neighborhood_size,
    outer_complement_check,
    variance_bound_check,
    xi_count_check,
)
from .percolate import (
    BernoulliStream,
    PercolationOutcome,
    dfs_percolate,
    largest_two,
    oracle_components,
)
from .experiment import (
    SweepConfig,
    SweepResult,
    TrialSummary,
    emit_csv,
    emit_json,
    hd_uniqueness_trial,
    run_sweep,
    subcritical_trial,
    supercritical_trial,
)

__version__ = "0.1.0"

__all__ = [
    "BernoulliStream",
    "CoDegreeResult",
    "GeneratorSpec",
    "Graph",
    "HDReport",
    "LemmaReport",
    "PercolabError",
    "PercolationOutcome",
    "PseudoRandomProfile",
    "SweepConfig",
    "SweepResult",
    "TrialSummary",
    "binomial_stream_check",
    "certify",
    "co_degree",
    "dfs_percolate",
    "emit_csv",
    "emit_json",
    "estimate_slacks",
    "expansion_check",
    "generate",
    "hd_check",
    "hd_uniqueness_trial",
    "inclusion_exclusion_check",
    "inclusion_exclusion_lower_bound",
    "largest_two",
    "load_edge_list",
    "max_co_degree",
    "neighborhood_size",
    "oracle_components",
    "outer_complement_check",
    "run_sweep",
    "save_edge_list",
    "subcritical_trial",
    "supercritical_trial",
    "variance_bound_check",
    "xi_count_check",
]
