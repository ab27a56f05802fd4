"""The six errors percolab raises, and the parameter gates entry points share.

A check of the paper's statements refuses in one of three ways: an argument
outside the domain a statement covers (InvalidParameter), an instance too
large to decide within a cap (ResourceLimit), or a host profile that does not
meet a check's hypothesis (NotCertified). A bad edge-list line raises
ParseError, or its sibling NonSimple for a self-loop or a repeated edge. All
derive from PercolabError: catching it never catches a programming error.
Only this module decides what an integer, a real, a bit or a vertex id is.
"""

import math
import numbers

import numpy as np


class PercolabError(Exception):
    """Base class for all percolab errors."""


class InvalidParameter(PercolabError, ValueError):
    """An argument outside its domain: a bool, a float for an integer, a
    non-finite or out-of-range number, a bad generator spec, a vertex id
    outside 0..n-1, an empty or too small set or a short or non-0/1 bit stream."""


class ResourceLimit(PercolabError):
    """Deciding the instance would exceed a cap: the expected edges of a
    generator, the edges of a loaded edge list, or the exact co-degree scan."""


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


def require_int(name, value, lo=0, hi=None):
    """`value` as a plain int. Raises InvalidParameter for a bool, a float or
    any other non-integer, or a value outside [lo, hi] (hi None: no bound)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise InvalidParameter(f"{name} must be an integer, got {value!r}")
    value = int(value)
    if value < lo or (hi is not None and value > hi):
        bounds = f">= {lo}" if hi is None else f"in [{lo}, {hi}]"
        raise InvalidParameter(f"{name} must be {bounds}, got {value}")
    return value


def require_bits(name, bits):
    """`bits` as a bool array. Raises InvalidParameter for an element that is
    not a bool or an integer equal to 0 or 1, numpy ones included."""
    bits = list(bits)
    for b in bits:
        if not (isinstance(b, (bool, np.bool_, numbers.Integral)) and b in (0, 1)):
            raise InvalidParameter(f"{name} must be 0/1 integers or bools, got {b!r}")
    return np.array(bits, dtype=bool)


def require_vertex_id(v):
    """The vertex id `v` as a plain int: an integer or a whole-valued real
    (2.0 reads as 2), never a bool. The range 0..n-1 is the caller's."""
    try:
        k = int(v)
    except (TypeError, ValueError, OverflowError):  # NaN, inf, a non-number
        k = None
    if k is None or k != v or isinstance(v, (bool, np.bool_)):
        raise InvalidParameter(f"vertices must be integer ids, got {v!r}")
    return k


def require_finite(**values):
    """The keyword values, in order, as plain numbers (an integer as int, any
    other real as float). Raises InvalidParameter for the first that is a
    bool, not a real number, NaN, inf or beyond the float range."""
    out = []
    for name, value in values.items():
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise InvalidParameter(f"{name} must be a real number, got {value!r}")
        try:  # float() refuses an int or a fraction beyond the float range
            finite = math.isfinite(value)
        except OverflowError:
            finite = False
        if not finite:
            raise InvalidParameter(f"{name} must be finite, got {value}")
        out.append(int(value) if isinstance(value, numbers.Integral) else float(value))
    return out


def require_density(p):
    """p as a plain number. Raises InvalidParameter unless p is a real in (0, 1]."""
    [p] = require_finite(p=p)
    if not 0.0 < p <= 1.0:
        raise InvalidParameter(f"p must be in (0, 1], got {p}")
    return p
