"""The six errors percolab raises, and the parameter checks entry points share.

A check of the paper's statements refuses in one of three ways: an argument
outside the domain a statement covers (InvalidParameter), an instance too
large to decide within a cap (ResourceLimit), or a host profile that does not
meet a check's hypothesis (NotCertified). A bad edge-list line raises
ParseError, or its sibling NonSimple for a self-loop or a repeated edge. All
derive from PercolabError: catching it never catches a programming error.
"""

import math


class PercolabError(Exception):
    """Base class for all percolab errors."""


class InvalidParameter(PercolabError, ValueError):
    """An argument outside its domain: a non-finite or out-of-range number, a
    bad generator spec, a vertex id outside 0..n-1, an empty or too small set,
    a stream of the wrong length or an unknown mode name."""


class ResourceLimit(PercolabError):
    """Deciding the instance would exceed a cap: the expected edges of a
    generator, the exact co-degree scan, or an exhaustive set enumeration."""


class NotCertified(PercolabError):
    """A profile falsifies a verdict or slack bound that a trial or a lemma
    needs, or was certified for another n or p."""


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


def require_finite(**values):
    """Raise InvalidParameter for the first keyword whose value is NaN or inf."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise InvalidParameter(f"{name} must be finite, got {value}")


def require_density(p):
    """Raise InvalidParameter unless 0 < p <= 1 (NaN and inf fail too)."""
    if not 0.0 < p <= 1.0:
        raise InvalidParameter(f"p must be in (0, 1], got {p}")
