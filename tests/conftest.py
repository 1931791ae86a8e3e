"""Shared helpers: paths, stars and seeded random graphs, a counter on the
Sturm fallback, guards that the exact root engine builds no Fraction and seeds from no
numpy polynomial roots."""

import numpy as np
import pytest

from specrad import exactroots
from specrad.graphs import from_edges, is_connected


def path(n):
    """Path P_n on n vertices."""
    return from_edges(n, [(i, i + 1) for i in range(n - 1)])


def star(leaves):
    """Star K_{1,leaves}: vertex 0 joined to `leaves` pendant vertices."""
    return from_edges(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def random_graph(rng, n, p=0.5):
    return from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)
                          if rng.random() < p])


def random_connected_graph(rng, n, p=0.5, tries=10000):
    for _ in range(tries):
        g = random_graph(rng, n, p)
        if is_connected(g):
            return g
    raise RuntimeError(f"no connected graph found for n={n}, p={p}")


@pytest.fixture
def sturm_calls(monkeypatch):
    """Counts the Sturm chains built, i.e. how often the fallback runs."""
    calls = []
    real = exactroots.sturm_chain

    def counting(p):
        calls.append(p)
        return real(p)

    monkeypatch.setattr(exactroots, "sturm_chain", counting)
    return calls


@pytest.fixture
def no_fraction(monkeypatch):
    """Makes any Fraction that exactroots builds raise: the seeded and
    integer-root paths keep their brackets in integers."""
    def stub(*args):
        raise AssertionError(f"exactroots built Fraction{args}")

    monkeypatch.setattr(exactroots, "Fraction", stub)


@pytest.fixture
def no_np_roots(monkeypatch):
    """Makes np.roots raise: largest_real_root seeds by Newton's iteration,
    not from a companion matrix."""
    def stub(*args):
        raise AssertionError("np.roots called")

    monkeypatch.setattr(np, "roots", stub)
