"""Exception taxonomy shared by all percolab modules, and the parameter
checks that every entry point shares.

Every error raised by the library derives from PercolabError so callers can
catch library failures without catching programming errors.
"""

import math


class PercolabError(Exception):
    """Base class for all percolab errors."""


class InvalidParameter(PercolabError, ValueError):
    """A number that is not finite or is outside its domain, an empty seed
    block, or an unknown mode name."""


def require_finite(**values):
    """Raise InvalidParameter for the first keyword whose value is NaN or inf."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise InvalidParameter(f"{name} must be finite, got {value}")


def require_density(p):
    """Raise InvalidParameter unless 0 < p <= 1 (NaN and inf fail too)."""
    if not 0.0 < p <= 1.0:
        raise InvalidParameter(f"p must be in (0, 1], got {p}")


# --- graph construction / loading ---

class InvalidSpec(PercolabError):
    """Generator spec has missing, extra, or out-of-range parameters."""


class ResourceLimit(PercolabError):
    """Expected edge count exceeds the configured cap."""


class ParseError(PercolabError):
    """Malformed edge-list line; carries the 1-based line number."""

    def __init__(self, line_no, message):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class NonSimple(PercolabError):
    """Self-loop or duplicate edge in an edge-list file; carries line number."""

    def __init__(self, line_no, message):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


# --- graph queries ---

class VertexOutOfRange(PercolabError):
    """Vertex id outside 0..n-1."""


class SameVertex(PercolabError):
    """Pair query called with u == v."""


class GraphTooSmall(PercolabError):
    """Operation needs at least two vertices."""


# --- certification ---

class SampledModeUnavailable(PercolabError):
    """Exact co-degree is infeasible at this n; tight slacks undefined."""


class SubsetTooSmall(PercolabError):
    """hd_check subset of floor(0.9 n) vertices is empty (n = 1)."""


class NotCertified(PercolabError):
    """A profile falsifies a verdict that a trial or a lemma bound needs, or
    was certified for another n or p."""


# --- percolation ---

class StreamLengthMismatch(PercolabError):
    """Explicit bit stream length differs from the vertex count."""


class InvalidEpsilon(PercolabError):
    """Binomial tail check requires eps^3 * n >= 1."""


class RhoOutOfRange(PercolabError):
    """Retention probability outside [0, 1]."""


# --- lemma checks ---

class EmptySet(PercolabError):
    """Set argument must be nonempty."""


class PreconditionViolated(PercolabError):
    """m*p outside the required (c, 1/3] window."""


class CombinationOverflow(PercolabError):
    """Exhaustive enumeration would exceed the subset cap."""


class USmall(PercolabError):
    """|U| < n/2 where the bound needs |U| >= n/2."""


class SlackTooLarge(PercolabError):
    """a_n exceeds alpha*p*n/2, breaking the deviation step of the bound."""


class NotConnected(PercolabError):
    """C must induce a connected subgraph."""


class SizeMismatch(PercolabError):
    """|C| differs from ceil(eps/p) by more than the rounding tolerance."""
