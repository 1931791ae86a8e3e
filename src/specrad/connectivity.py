"""Vertex connectivity, cut witnesses, and the k-set decision.

One search decides kappa(G) <= k and finds the cut.

:func:`connectivity_at_most` decides kappa(G) <= k from the minimum
degree delta and one side-size bound.  From above, kappa(G) <= delta
for every graph (Whitney, Amer. J. Math. 54, 1932): the neighbourhood
of a minimum-degree vertex v separates v from its non-neighbours, and
kappa(K_n) = delta = n - 1.  So k >= delta is True, and otherwise
k < delta <= n - 1.  Then a separator of fewer than k vertices extends
to one of exactly k (keep one vertex in each of two components), so
kappa(G) <= k if and only if some k-set S separates.  Each side A of
such an S leaves its vertices adjacent only within A u S, so
delta <= |A| - 1 + k: every side has at least delta - k + 1 vertices,
and so at most n - delta - 1.  A connected set X outside S lies on one
side A, and its closed neighbourhood N[X] lies in A u S, so
|A| >= |N[X]| - k: every connected X with
|N[X]| > top = n - delta + k - 1 meets S.  Applied to one vertex
(|N[v]| = deg v + 1), the bound forces every vertex of degree >= top
into S: more than k such forced vertices give False (so does every
k < 0, as |F| >= 0), and for k < 2*delta + 2 - n all n are forced,
which is the lower bound kappa(G) >= 2*delta + 2 - n.  Applied to an
edge uv (N[{u, v}] = N(u) u N(v)), it makes uv heavy when
|N(u) u N(v)| > top: every k-separator holds u or v.
The search tries the forced set F joined with (k - |F|)-subsets of
V - F that cover the heavy edges of G - F, the bounded vertex-cover
search tree of Buss and Goldsmith (SIAM J. Comput. 22, 1993): take u,
or leave u out and take v.  Once every heavy edge is covered, each
completion of the set costs one bitset BFS of :mod:`specrad.graphs`.

:func:`vertex_connectivity` runs the same search for k = |U|, |U| + 1,
... below delta, where U is the set of universal vertices: each lies in
every separator (outside a separator S it would connect all of G - S),
so kappa(G) >= |U|.  The first k-set that separates is the cut; when
none does, kappa = delta, and the neighbourhood of a minimum-degree
vertex is the cut.  On a clique join K_k + (K_a u K_b) the first search,
at k = |U|, is one BFS on G - U.  A witness is its cut alone; (G, cut)
determines the sides, and :meth:`CutWitness.check` is one bitset BFS on
G - cut.

The cost of the one route is the search's: exponential in k - |F| where
no edge is heavy, as in regular graphs, where it tries every
(k - |F|)-subset.  ``vertex_connectivity`` took 64 ms per 5 connected
random 6-regular graphs on 16 vertices and 810 ms per 5 7-regular
graphs on 20, where a unit-capacity max-flow over the Even-Tarjan pair
family (Even & Tarjan, SIAM J. Comput. 4, 1975), polynomial in n, took
3.1 and 6.0 ms (2-vCPU Xeon, Python 3.11).  The graphs checked here are
far from that: the census orders are n <= 10, and every family graph is
a clique join, cut by U.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from itertools import combinations

from .graphs import _component_mask, _mask_vertices, is_connected

__all__ = [
    "CutWitness",
    "vertex_connectivity",
    "connectivity_at_most",
]


@dataclass(frozen=True)
class CutWitness:
    """A vertex set whose removal disconnects the graph.

    ``cut`` is empty when the graph was already disconnected.  When
    produced by :func:`vertex_connectivity`, |cut| = kappa(G).  The
    sides are not stored: (G, cut) determines them.
    """

    cut: frozenset

    def check(self, g):
        """Verify the witness against g; raises on violation.

        The cut must consist of vertices of g, and G - cut must have at
        least two components: one bitset BFS from the lowest remaining
        vertex must miss part of G - cut.
        """
        for v in self.cut:
            if not (isinstance(v, int) and 0 <= v < g.n):
                raise AssertionError(f"cut vertex {v!r} is not a vertex of the graph")
        rest = ((1 << g.n) - 1) & ~sum(1 << v for v in self.cut)
        # an empty rest is its own component: the search from bit 0 finds 0
        if _component_mask(g.rows, rest, rest & -rest) == rest:
            raise AssertionError("witness must leave at least two components")
        return self


def vertex_connectivity(g):
    """kappa(G) plus a witness.

    Returns (n-1, None) for complete graphs (no cut exists; None is the
    complete-graph marker), (0, witness-with-empty-cut) for disconnected
    input, and otherwise (kappa, witness) with |witness.cut| = kappa.

    The cut is the first separating k-set of the search for
    k = |U|, |U| + 1, ... below delta, or else the neighbourhood of a
    minimum-degree vertex (module docstring).
    """
    n = g.n
    rows = g.rows
    degrees = g.degrees()
    universal = degrees.count(n - 1)
    if universal == n:
        return n - 1, None
    if not is_connected(g):
        return 0, CutWitness(frozenset())
    delta = min(degrees)
    full = (1 << n) - 1
    for k in range(universal, delta):
        left = _separated_rest(rows, k, delta)
        if left:
            cut = full & ~left
            break
    else:
        cut = rows[degrees.index(delta)]
    return cut.bit_count(), CutWitness(frozenset(_mask_vertices(cut)))


def connectivity_at_most(g, k):
    """Decide kappa(G) <= k, from the minimum degree delta and one bound.

    k >= delta is True, since kappa <= delta (Whitney).  Otherwise
    kappa <= k if and only if some set S of exactly k vertices
    separates, and each side of S has at most n - delta - 1 vertices.
    A vertex or an edge outside S shares its side with its neighbours
    outside S, so with top = n - delta + k - 1:
    - a vertex of degree >= top is forced into S; more than k such
      forced vertices give False;
    - an edge uv with |N(u) u N(v)| > top is heavy: S holds u or v.
    The search tries the forced set F joined with each (k - |F|)-subset
    of the other vertices that covers the heavy edges (branch on the
    first uncovered one: take u, or ban u and take v), one bitset BFS
    per set.  A greedy matching of the heavy edges, kept as they are
    found, gives False once it holds more than k - |F| edges.
    Takes integer k only; other k raise TypeError.  The search is
    exponential in k - |F| where no edge is heavy (module docstring).
    """
    k = operator.index(k)
    rows = g.rows
    # inline, not graphs.min_degree: a traced scan gets no extra span per call
    delta = min(map(int.bit_count, rows))
    return k >= delta or _separated_rest(rows, k, delta) != 0


def _separated_rest(rows, k, delta):
    """The vertices that some separating k-set leaves, as a mask, or 0 if
    no k-set separates; k < delta, the minimum degree.

    The mask is never 0 when a k-set separates, since at least two
    components remain.
    """
    n = len(rows)
    if k < 2 * delta + 2 - n:
        return 0  # all n vertices are forced below, but only after a row scan
    top = n - delta + k - 1
    forced = sum([1 << v for v, r in enumerate(rows) if r.bit_count() >= top])
    size = forced.bit_count()
    if size > k:
        return 0
    rest = ((1 << n) - 1) & ~forced
    picks = k - size
    heavy = []  # each edge of G - F from its lower end; none if no pick is left
    matched = 0  # the ends of a greedy matching of the heavy edges
    for u in _mask_vertices(rest if picks else 0):
        bu = 1 << u
        m = rows[u] & rest & -(bu << 1)
        while m:
            b = m & -m
            m ^= b
            if (rows[u] | rows[b.bit_length() - 1]).bit_count() > top:
                heavy.append((bu, b))
                if not matched & (bu | b):
                    matched |= bu | b
                    # a cover takes one end of each matched edge
                    if matched.bit_count() > 2 * picks:
                        return 0
    return _cut_within(rows, rest, picks, heavy)


def _cut_within(rows, avail, picks, heavy, start=0, banned=0):
    """The vertices left once `picks` more vertices of avail - banned,
    covering every heavy edge from ``heavy[start]`` on, are removed and
    disconnect avail, as a mask; 0 if no such removal disconnects it.

    ``heavy`` holds single-bit pairs (u, v); an edge is covered once u or
    v has left avail.  The first uncovered one branches: take u, or ban u
    and take v, so no set is tried twice.  Once all are covered, each
    ``picks``-subset of the free vertices costs one bitset BFS.
    """
    for i in range(start, len(heavy)):
        u, v = heavy[i]
        if avail & u and avail & v:
            if not picks:
                return 0
            return ((0 if banned & u
                     else _cut_within(rows, avail - u, picks - 1, heavy, i + 1, banned))
                    or (0 if banned & v
                        else _cut_within(rows, avail - v, picks - 1, heavy, i + 1, banned | u)))
    if not picks:
        return avail if _component_mask(rows, avail, avail & -avail) != avail else 0
    free = avail & ~banned
    for combo in combinations([1 << v for v in range(len(rows)) if free >> v & 1], picks):
        left = avail - sum(combo)
        if _component_mask(rows, left, left & -left) != left:
            return left
    return 0
