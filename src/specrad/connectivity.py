"""Vertex connectivity, cut witnesses, and the degree-based guarantee.

kappa(G) is computed by unit-capacity max-flow on the vertex-split
digraph (each vertex becomes an in/out pair joined by a capacity-1 arc),
minimized over an Even-Tarjan pair family: a minimum-degree vertex
against all its non-neighbours, then all non-adjacent pairs of its
neighbours.  Removal witnesses are recovered from the final residual
reachability.

For the census inner loop, :func:`connectivity_at_most` decides
kappa(G) <= k directly by exhausting vertex subsets of size <= k with
the bitset BFS of :mod:`specrad.graphs`; it is equivalent to the
max-flow route (tested) and much faster at desk scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .graphs import _component_mask, components, induced_subgraph, is_connected

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


def _split_maxflow(g, s, t, cap_limit=None):
    """Max vertex-disjoint s-t paths for non-adjacent s, t.

    Unit-capacity BFS augmentation on the split digraph; stops early
    once the flow exceeds cap_limit when one is given.  Returns
    (flow, reachable_mask) where reachable_mask covers split nodes
    reachable from the source in the final residual network.
    """
    n = g.n
    # split node ids: 2v = v_in, 2v+1 = v_out; arcs as residual capacity dict
    inf = n + 1
    cap = {}

    def add(u, v, c):
        cap[(u, v)] = cap.get((u, v), 0) + c
        cap.setdefault((v, u), 0)

    adj = [[] for _ in range(2 * n)]

    def arc(u, v, c):
        if (u, v) not in cap:
            adj[u].append(v)
            adj[v].append(u)
        add(u, v, c)

    for v in range(n):
        arc(2 * v, 2 * v + 1, 1)
    for u in range(n):
        m = g.rows[u]
        while m:
            b = m & -m
            w = b.bit_length() - 1
            m ^= b
            arc(2 * u + 1, 2 * w, inf)
    source, sink = 2 * s + 1, 2 * t
    flow = 0
    while True:
        if cap_limit is not None and flow > cap_limit:
            return flow, 0
        # BFS for an augmenting path
        parent = {source: None}
        queue = [source]
        qi = 0
        while qi < len(queue) and sink not in parent:
            u = queue[qi]
            qi += 1
            for v in adj[u]:
                if v not in parent and cap[(u, v)] > 0:
                    parent[v] = u
                    queue.append(v)
        if sink not in parent:
            reach = 0
            for u in parent:
                reach |= 1 << u
            return flow, reach
        v = sink
        while parent[v] is not None:
            u = parent[v]
            cap[(u, v)] -= 1
            cap[(v, u)] += 1
            v = u
        flow += 1


def _pair_family(g):
    """Even-Tarjan candidate pairs covering some minimum cut."""
    u = min(range(g.n), key=lambda v: g.rows[v].bit_count())
    nbrs = g.neighbors(u)
    for w in range(g.n):
        if w != u and not g.has_edge(u, w):
            yield (u, w)
    for x, y in combinations(nbrs, 2):
        if not g.has_edge(x, y):
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
    best = n - 1
    best_reach = None
    for s, t in _pair_family(g):
        # a run that returns flow < best ran to completion, so its
        # residual reachability gives a minimum s-t cut
        flow, reach = _split_maxflow(g, s, t, cap_limit=best)
        if flow < best:
            best = flow
            best_reach = reach
    assert best_reach is not None, "non-complete connected graph must have a cut pair"
    # v is cut when the residual network reaches v_in but not v_out
    cut = frozenset(v for v in range(n)
                    if (best_reach >> (2 * v)) & 1 and not (best_reach >> (2 * v + 1)) & 1)
    assert len(cut) == best, "residual cut size must equal the max flow"
    rest = [v for v in range(n) if v not in cut]
    sub = induced_subgraph(g, rest)
    comps = tuple(frozenset(rest[i] for i in comp) for comp in components(sub))
    return best, CutWitness(cut, comps)


def connectivity_at_most(g, k):
    """Decide kappa(G) <= k by exhausting candidate cuts of size <= k.

    Equivalent to vertex_connectivity(g)[0] <= k; used where the flow
    machinery would dominate the running time (census inner loop).
    """
    if k < 0:
        return False  # kappa >= 0 > k
    n = g.n
    if k >= n - 1:
        return True
    if not is_connected(g):
        return True
    if g.is_complete():
        return False  # kappa = n-1 > k here
    full = (1 << n) - 1
    rows = g.rows
    for size in range(1, k + 1):
        for combo in combinations(range(n), size):
            avail = full
            for v in combo:
                avail &= ~(1 << v)
            if _component_mask(rows, avail, avail & -avail) != avail:
                return True
    return False


def is_k_connected(g, k):
    """k-connectivity: either G = K_{k+1}, or n >= k+2 and no cut of size < k."""
    if k < 1:
        raise ValueError("is_k_connected needs k >= 1")
    n = g.n
    if n == k + 1:
        return g.is_complete()
    if n < k + 2:
        return False
    return not connectivity_at_most(g, k - 1)


def lemma_guarantee(n, k, delta):
    """True iff delta > (n+k)/2 + 1, evaluated exactly over the integers.

    Graphs meeting this degree threshold are always (k+1)-connected;
    the census verifies that implication exhaustively.
    """
    return 2 * delta > n + k + 2
