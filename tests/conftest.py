"""Shared helpers: seeded random graphs, a counter on the Sturm fallback."""

import random

import pytest

from specrad import exactroots
from specrad.graphs import from_edges, is_connected


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
