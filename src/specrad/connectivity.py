"""Vertex connectivity, cut witnesses, and the degree-based guarantee.

kappa(G) is computed by unit-capacity max-flow on the vertex-split
digraph (each vertex becomes an in/out pair joined by a capacity-1 arc),
minimized over an Even-Tarjan pair family (Even & Tarjan, SIAM J.
Comput. 4, 1975): a minimum-degree vertex against all its
non-neighbours, then all non-adjacent pairs of its neighbours.  The
digraph is never built: the neighbour lists are made once per graph, and
a flow is one list ``pred`` (the vertex feeding each vertex's unit, or
-1), from which the residual network follows.  Removal witnesses are
recovered from the final residual reachability.

:func:`connectivity_at_most` decides kappa(G) <= k on k-sets alone: for
k <= n-2, a smaller separator extends to one of exactly k vertices (keep
one vertex in each of two components), so it costs C(n, k) bitset BFS
calls of :mod:`specrad.graphs`.  It agrees with the max-flow route
(tested) and beats it on the census graphs only for small n and k.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .graphs import _component_mask, _components_within, components, is_connected

__all__ = [
    "CutWitness",
    "vertex_connectivity",
    "is_k_connected",
    "connectivity_at_most",
    "lemma_guarantee",
]


@dataclass(frozen=True)
class CutWitness:
    """A disconnecting vertex set with the components it leaves behind.

    ``cut`` is empty when the graph was already disconnected.  When
    produced by :func:`vertex_connectivity`, |cut| = kappa(G).
    """

    cut: frozenset
    side_components: tuple

    def check(self, g):
        """Verify the witness against g; raises on violation."""
        rest = [v for v in range(g.n) if v not in self.cut]
        assign = {}
        for idx, comp in enumerate(self.side_components):
            for v in comp:
                if v in assign:
                    raise AssertionError(f"vertex {v} is in two witness components")
                assign[v] = idx
        if sorted(assign) != rest:
            raise AssertionError("witness components do not partition V minus cut")
        if len(self.side_components) < 2:
            raise AssertionError("witness must leave at least two components")
        if not all(self.side_components):
            raise AssertionError("witness component is empty")
        for u in rest:
            for v in g.neighbors(u):
                if v in assign and assign[v] != assign[u]:
                    raise AssertionError(f"edge {u}-{v} crosses witness components")
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
    """
    n = g.n
    if g.is_complete():
        return n - 1, None
    if not is_connected(g):
        return 0, CutWitness(frozenset(), tuple(components(g)))
    nbrs = [g.neighbors(v) for v in range(n)]
    best = n - 1
    best_reach = None
    for s, t in _pair_family(g.rows, nbrs):
        # a run that returns flow < best ran to completion, so its
        # residual reachability gives a minimum s-t cut
        flow, reach = _split_maxflow(nbrs, s, t, cap_limit=best)
        if flow < best:
            best = flow
            best_reach = reach
    assert best_reach is not None, "non-complete connected graph must have a cut pair"
    # v is cut when the residual network reaches v_in but not v_out
    cut = frozenset(v for v in range(n)
                    if best_reach[2 * v] >= 0 and best_reach[2 * v + 1] < 0)
    assert len(cut) == best, "residual cut size must equal the max flow"
    rest = ((1 << n) - 1) & ~sum(1 << v for v in cut)
    return best, CutWitness(cut, tuple(_components_within(g.rows, rest)))


def connectivity_at_most(g, k):
    """Decide kappa(G) <= k by trying every set of exactly k vertices.

    k = 0 tries the empty set, i.e. the connectivity test; C(n, k) bitset
    BFS calls in all.  Equivalent to vertex_connectivity(g)[0] <= k.
    """
    if k < 0:
        return False  # kappa >= 0 > k
    n = g.n
    if k >= n - 1:
        return True
    full = (1 << n) - 1
    rows = g.rows
    for combo in combinations(range(n), k):
        avail = full
        for v in combo:
            avail &= ~(1 << v)
        if _component_mask(rows, avail, avail & -avail) != avail:
            return True
    return False


def is_k_connected(g, k):
    """k-connectivity: n > k and kappa(G) >= k."""
    if k < 1:
        raise ValueError("is_k_connected needs k >= 1")
    return not connectivity_at_most(g, k - 1)


def lemma_guarantee(n, k, delta):
    """True iff delta > (n+k)/2 + 1, evaluated exactly over the integers.

    Graphs meeting this degree threshold are always (k+1)-connected;
    the census verifies that implication exhaustively.
    """
    return 2 * delta > n + k + 2
