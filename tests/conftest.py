"""Shared fixtures and tiny hand-built graphs.

Tests build small graphs directly from edge lists so expected values can be
checked by hand; generated families are exercised against independent oracles
in the individual test modules.
"""

import numpy as np
import pytest

from percolab.graph import _from_upper_rows


def build_graph(n, edges):
    """Graph on n vertices from an iterable of (u, v) pairs, any order."""
    pairs = sorted((min(u, v), max(u, v)) for u, v in edges)
    eu = np.array([a for a, _ in pairs], dtype=np.int64)
    ev = np.array([b for _, b in pairs], dtype=np.int64)
    return _from_upper_rows(n, np.bincount(eu, minlength=n), ev)


def complete_graph(n):
    return build_graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def star_graph(n):
    """n vertices total: center 0, leaves 1..n-1."""
    return build_graph(n, [(0, i) for i in range(1, n)])


def path_graph(n):
    return build_graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n):
    return build_graph(n, [(i, (i + 1) % n) for i in range(n)])


def edge_set(g):
    """Set of (u, v) with u < v, recovered from the adjacency structure."""
    out = set()
    for v in range(g.n):
        for w in g.neighbors_of(v):
            if v < int(w):
                out.add((v, int(w)))
    return out


@pytest.fixture
def triangle():
    return cycle_graph(3)


@pytest.fixture
def k4():
    return complete_graph(4)


@pytest.fixture
def path5():
    return path_graph(5)
