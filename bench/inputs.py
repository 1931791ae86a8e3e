"""Seeded input generation for the three workloads.

Inputs are built with networkx, numpy and the standard library only, never
with specrad, so the program under test sees nothing it produced itself.
Every function returns plain JSON data; the same seed gives byte-identical
``serialize`` output in any process.
"""

from __future__ import annotations

import json
import random

import networkx as nx
import numpy as np
from networkx.generators.atlas import graph_atlas_g

from g6 import encode, relabel

CENSUS_ORDERS = (8, 9, 10)
CENSUS_DENSITIES = (0.3, 0.5, 0.7, 0.9)
TIES_ORDERS = tuple(range(12, 25))
# Pairs of each kind.  Sorted by cost, the kinds form clusters (relabeled
# copies cheapest, near-ties next, regular and random pairs dearest); these
# counts keep the median and the tail percentile off the gaps between them.
TIES_KINDS = {"relabel": 8, "regular": 4, "random": 4, "near": 24}
TIES_DENSITIES = (0.3, 0.5, 0.7)
# Random and near-tie pairs are kept only when their radii are this far apart,
# so the oracle can order them from eigvalsh alone.
TIES_MIN_GAP = 1e-6


def serialize(inputs):
    """Canonical bytes of an input set (what the determinism checks compare)."""
    return json.dumps(inputs, sort_keys=True, separators=(",", ":")).encode()


def _gnp_connected(rng, n, p):
    while True:
        g = nx.gnp_random_graph(n, p, seed=rng.randrange(1 << 32))
        if nx.is_connected(g):
            return list(g.edges())


def _connected(n, edges):
    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from(edges)
    return nx.is_connected(g)


def _rho(n, edges):
    a = np.zeros((n, n))
    for u, v in edges:
        a[u, v] = a[v, u] = 1.0
    return float(np.linalg.eigvalsh(a)[-1])


def clique_join_edges(n, k, delta):
    """Edges of K_k + (K_{delta-k+1} u K_{n-delta-1}) in canonical layout."""
    a = delta - k + 1
    s_block, a_block, b_block = range(k), range(k, k + a), range(k + a, n)
    edges = [(u, v) for u in s_block for v in range(u + 1, n)]
    for block in (a_block, b_block):
        edges += [(u, v) for u in block for v in block if u < v]
    return edges


def realizing_triples(n):
    """(n, k, delta) with 1 <= k <= delta <= n-2 and minimum degree exactly delta."""
    return [(n, k, d) for k in range(1, n - 1) for d in range(k, n - 1)
            if n >= 2 * d + 2 - k]


def census_inputs(seed, atlas_max_n=7, orders=CENSUS_ORDERS,
                  densities=CENSUS_DENSITIES, per_stratum=75, extremal_max_n=10):
    """A graph6 stream: connected atlas graphs, random G(n, p), relabeled extremal graphs."""
    rng = random.Random(seed)
    lines = [encode(g.number_of_nodes(), list(g.edges())) for g in graph_atlas_g()
             if 2 <= g.number_of_nodes() <= atlas_max_n and nx.is_connected(g)]
    for n in orders:
        for p in densities:
            lines += [encode(n, relabel(rng, n, _gnp_connected(rng, n, p)))
                      for _ in range(per_stratum)]
    for n in range(4, extremal_max_n + 1):
        for t in realizing_triples(n):
            lines.append(encode(n, relabel(rng, n, clique_join_edges(*t))))
    rng.shuffle(lines)
    return {"g6": lines}


def _regular_connected(rng, n):
    while True:
        g = nx.random_regular_graph(4, n, seed=rng.randrange(1 << 32))
        if nx.is_connected(g):
            return list(g.edges())


def _tie_pair(rng, kind, n, m, p):
    """Graphs (order, edges) of one pair; orders and density come from the schedule."""
    if kind == "relabel":
        edges = _gnp_connected(rng, n, p)
        return (n, edges), (n, relabel(rng, n, edges))
    if kind == "regular":
        return (n, _regular_connected(rng, n)), (m, _regular_connected(rng, m))
    while True:
        if kind == "random":
            g, h = (n, _gnp_connected(rng, n, p)), (m, _gnp_connected(rng, m, p))
        else:  # near: the extremal graph against a one-edge move of itself
            _, k, d = rng.choice(realizing_triples(n))
            edges = clique_join_edges(n, k, d)
            present = set(edges)
            absent = [(u, v) for v in range(n) for u in range(v) if (u, v) not in present]
            drop = rng.choice(edges)
            moved = [e for e in edges if e != drop] + [rng.choice(absent)]
            g, h = (n, relabel(rng, n, edges)), (n, relabel(rng, n, moved))
            if not _connected(*h):
                continue
        if abs(_rho(*g) - _rho(*h)) > TIES_MIN_GAP:
            return g, h


def ties_inputs(seed, orders=TIES_ORDERS, per_kind=None):
    """Pairs for exact comparison: TIES_KINDS of each kind, or `per_kind` of each.

    Pair i of a kind has orders (orders[i], orders[i + len/2]) cyclically and
    density TIES_DENSITIES[i % 3], so seeds differ in structure only and the
    cost of a pass stays comparable between seeds.
    """
    rng = random.Random(seed)
    half = len(orders) // 2
    pairs = []
    for kind, count in TIES_KINDS.items():
        for i in range(count if per_kind is None else per_kind):
            n, m = orders[i % len(orders)], orders[(i + half) % len(orders)]
            g, h = _tie_pair(rng, kind, n, m, TIES_DENSITIES[i % len(TIES_DENSITIES)])
            pairs.append({"kind": kind, "g": encode(*g), "h": encode(*h)})
    rng.shuffle(pairs)
    return {"pairs": pairs}


def family_inputs(seed, max_n=15):
    """Every valid (n, k, delta) with 4 <= n <= max_n, in seeded order."""
    triples = [[n, k, d] for n in range(4, max_n + 1)
               for k in range(1, n - 1) for d in range(k, n - 1)]
    random.Random(seed).shuffle(triples)
    return {"triples": triples}


# The full-size inputs of each workload, by seed.
GENERATORS = {"census": census_inputs, "ties": ties_inputs, "family": family_inputs}
