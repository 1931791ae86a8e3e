"""Vertex connectivity, cut witnesses, and the k-set decision.

kappa(G) is computed by unit-capacity max-flow on the vertex-split
digraph (each vertex becomes an in/out pair joined by a capacity-1 arc),
minimized over an Even-Tarjan pair family (Even & Tarjan, SIAM J.
Comput. 4, 1975): a minimum-degree vertex against all its
non-neighbours, then all non-adjacent pairs of its neighbours.  The
digraph is never built: the neighbour lists are made once per graph, and
a flow is one list ``pred`` (the vertex feeding each vertex's unit, or
-1), from which the residual network follows.  A witness is its cut
alone, read from the final residual reachability; (G, cut) determines
the sides, and :meth:`CutWitness.check` is one bitset BFS on G - cut.

The flow runs on G - U, where U is the set of universal vertices:
kappa(G) = |U| + kappa(G - U) for non-complete G, since a universal
vertex outside a separator S would connect all of G - S.  On a clique
join K_k + (K_a u K_b), G - U is disconnected, so U is the cut and no
flow runs at all.

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

The two routes serve two regimes, and agree (tested).  The k-scan
(``connectivity_at_most`` for k = 0, 1, ...) serves the census orders
n <= 10, where it beats max-flow on random G(n, p) at every density
(0.5 against 3.2 ms per 20 connected G(10, 0.7) graphs; 2-vCPU Xeon,
Python 3.11).  Max-flow serves graphs that are not clique joins, past
n = 10; no workload runs it (every family graph is a clique join, cut
by U), and it is the tests' reference for the scan.  The scan's cost
rests on the heavy edges: on G(n, p) it still wins at n = 16 (2.3
against 13.3 ms per 20 graphs at p = 0.7), but where no edge is heavy,
as in regular graphs, it tries every (k - |F|)-subset (95.3 against
3.8 ms per 5 connected 6-regular graphs on 16 vertices), while the
flow stays polynomial.
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


def _split_maxflow(nbrs, s, t, cap_limit):
    """Max vertex-disjoint s-t paths for non-adjacent s, t.

    ``nbrs[v]`` lists the neighbours of v.  BFS augmentation on the
    split digraph (``2v`` = v_in, ``2v+1`` = v_out); stops early once
    the flow exceeds cap_limit.  The flow is the list
    ``pred``: ``pred[w]`` is the vertex whose out-arc carries the unit
    into w_in, or -1, and the residual network follows from it.  v_out
    reaches every w_in, and v_in when v carries flow; v_in reaches v_out
    when v is free, else ``pred[v]``_out (the cancel arc).  Returns
    (flow, parent): on a completed run ``parent[x] >= 0`` exactly for
    the split nodes x reachable from s_out in the final residual
    network; a capped run returns parent None.
    """
    pred = [-1] * len(nbrs)
    source, sink = 2 * s + 1, 2 * t
    flow = 0
    while True:
        if flow > cap_limit:
            return flow, None
        parent = [-1] * (2 * len(nbrs))
        parent[source] = source
        queue = [source]
        for x in queue:
            v = x >> 1
            if x & 1:
                if pred[v] >= 0 and parent[x - 1] < 0:
                    parent[x - 1] = x
                    queue.append(x - 1)
                for w in nbrs[v]:
                    if parent[2 * w] < 0:
                        parent[2 * w] = x
                        queue.append(2 * w)
                if parent[sink] >= 0:
                    break
            else:
                y = x + 1 if pred[v] < 0 else 2 * pred[v] + 1
                if parent[y] < 0:
                    parent[y] = x
                    queue.append(y)
        else:
            return flow, parent
        # walk back from the sink: a forward edge arc u_out -> w_in sets
        # pred[w]; a cancel arc w_in -> pred[w]_out clears it first.
        # pred[t] is written but never read: the sink is never expanded.
        y = sink
        while y != source:
            x = parent[y]
            if x >> 1 != y >> 1:
                if x & 1:
                    pred[y >> 1] = x >> 1
                else:
                    pred[x >> 1] = -1
            y = x
        flow += 1


def _pair_family(rows, nbrs):
    """Even-Tarjan candidate pairs covering some minimum cut."""
    u = min(range(len(rows)), key=lambda v: rows[v].bit_count())
    for w in range(len(rows)):
        if w != u and not rows[u] >> w & 1:
            yield (u, w)
    for x, y in combinations(nbrs[u], 2):
        if not rows[x] >> y & 1:
            yield (x, y)


def vertex_connectivity(g):
    """kappa(G) plus a witness.

    Returns (n-1, None) for complete graphs (no cut exists; None is the
    complete-graph marker), (0, witness-with-empty-cut) for disconnected
    input, and otherwise (kappa, witness) with |witness.cut| = kappa.

    The set U of universal vertices lies in every separator, so
    kappa(G) = |U| + kappa(G - U) for non-complete G: a universal vertex
    outside S would connect all of G - S.  When G - U is disconnected
    (every clique join K_k + (K_a u K_b)), U is the cut and no flow runs;
    otherwise the max-flow sweep runs on G - U and U joins its cut.
    Each case picks one cut mask, and the witness is built from it.
    """
    n = g.n
    rows = g.rows
    full = (1 << n) - 1
    universal = sum([1 << v for v, r in enumerate(rows) if r.bit_count() == n - 1])
    if universal == full:
        return n - 1, None
    rest = full & ~universal
    if not is_connected(g):
        cut = 0
    # with U empty, G - U = G, which the test above found connected
    elif universal and _component_mask(rows, rest, rest & -rest) != rest:
        cut = universal
    else:
        # the minimum-degree vertex and its non-neighbours are the same in
        # G and G - U, so the pair family needs only U dropped from the lists
        nbrs = [list(_mask_vertices(r & rest)) for r in rows]
        best = n - 1
        best_reach = None
        for s, t in _pair_family(rows, nbrs):
            # a run that returns flow < best ran to completion, so its
            # residual reachability gives a minimum s-t cut
            flow, reach = _split_maxflow(nbrs, s, t, cap_limit=best)
            if flow < best:
                best = flow
                best_reach = reach
        assert best_reach is not None, "non-complete connected graph must have a cut pair"
        # v is cut when the residual network reaches v_in but not v_out
        cut = sum(1 << v for v in range(n)
                  if best_reach[2 * v] >= 0 and best_reach[2 * v + 1] < 0)
        assert cut.bit_count() == best, "residual cut size must equal the max flow"
        cut |= universal
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
    Equivalent to vertex_connectivity(g)[0] <= k for integer k; other k
    raise TypeError.  The module docstring says when to scan.
    """
    k = operator.index(k)
    rows = g.rows
    # inline, not graphs.min_degree: a traced scan gets no extra span per call
    delta = min(map(int.bit_count, rows))
    if k >= delta:
        return True
    n = g.n
    if k < 2 * delta + 2 - n:
        return False  # all n vertices are forced below, but only after a row scan
    top = n - delta + k - 1
    forced = sum([1 << v for v, r in enumerate(rows) if r.bit_count() >= top])
    size = forced.bit_count()
    if size > k:
        return False
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
                        return False
    return _cut_within(rows, rest, picks, heavy)


def _cut_within(rows, avail, picks, heavy, start=0, banned=0):
    """True iff removing `picks` more vertices of avail - banned, covering
    every heavy edge from ``heavy[start]`` on, disconnects avail.

    ``heavy`` holds single-bit pairs (u, v); an edge is covered once u or
    v has left avail.  The first uncovered one branches: take u, or ban u
    and take v, so no set is tried twice.  Once all are covered, each
    ``picks``-subset of the free vertices costs one bitset BFS.
    """
    for i in range(start, len(heavy)):
        u, v = heavy[i]
        if avail & u and avail & v:
            if not picks:
                return False
            return ((not banned & u
                     and _cut_within(rows, avail - u, picks - 1, heavy, i + 1, banned))
                    or (not banned & v
                        and _cut_within(rows, avail - v, picks - 1, heavy, i + 1, banned | u)))
    if not picks:
        return _component_mask(rows, avail, avail & -avail) != avail
    free = avail & ~banned
    for combo in combinations([1 << v for v in range(len(rows)) if free >> v & 1], picks):
        left = avail - sum(combo)
        if _component_mask(rows, left, left & -left) != left:
            return True
    return False
