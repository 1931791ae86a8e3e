"""Vertex connectivity: max-flow route, subset route, witnesses, guarantee."""

import random
from itertools import combinations

import networkx as nx
import pytest
from networkx.algorithms.connectivity import local_node_connectivity

from conftest import random_connected_graph, random_graph
from specrad.graphs import (
    ExtremalParams,
    complete,
    cycle,
    disjoint_union,
    extremal_graph,
    from_edges,
    min_degree,
    path,
)
from specrad.connectivity import (
    CutWitness,
    _split_maxflow,
    connectivity_at_most,
    is_k_connected,
    lemma_guarantee,
    vertex_connectivity,
)


def kappa_oracle(g):
    """Brute force: smallest vertex set whose removal disconnects g."""
    n, h = g.n, to_networkx(g)
    if h.number_of_edges() == n * (n - 1) // 2:
        return n - 1
    if not nx.is_connected(h):
        return 0
    for size in range(1, n - 1):
        for combo in combinations(range(n), size):
            if not nx.is_connected(h.subgraph(set(range(n)) - set(combo))):
                return size
    return n - 1


class TestVertexConnectivity:
    def test_complete_marker(self):
        k, w = vertex_connectivity(complete(5))
        assert k == 4 and w is None

    def test_k1(self):
        assert vertex_connectivity(complete(1)) == (0, None)

    def test_cycle(self):
        k, w = vertex_connectivity(cycle(6))
        assert k == 2 and len(w.cut) == 2
        w.check(cycle(6))

    def test_path_cut_vertex(self):
        k, w = vertex_connectivity(path(4))
        assert k == 1
        w.check(path(4))

    def test_disconnected(self):
        g = disjoint_union(complete(2), complete(3))
        k, w = vertex_connectivity(g)
        assert k == 0 and w.cut == frozenset()
        assert len(w.side_components) == 2
        w.check(g)

    def test_extremal_cut_is_join_block(self):
        g = extremal_graph(ExtremalParams(7, 2, 3))
        k, w = vertex_connectivity(g)
        assert k == 2
        assert w.cut == frozenset({0, 1})  # block S in the canonical layout
        w.check(g)

    def test_extremal_kappa_equals_k(self):
        for n in range(4, 9):
            for kk in range(1, n - 1):
                for d in range(kk, n - 1):
                    g = extremal_graph(ExtremalParams(n, kk, d))
                    assert vertex_connectivity(g)[0] == kk

    def test_vs_brute_force_random(self):
        rng = random.Random(21)
        for _ in range(60):
            g = random_graph(rng, rng.randint(1, 8))
            k, w = vertex_connectivity(g)
            assert k == kappa_oracle(g)
            if w is not None:
                w.check(g)
                # minimality: no (|cut|-1)-subset of the witness disconnects
                if k >= 1:
                    h = to_networkx(g)
                    for sub in combinations(sorted(w.cut), k - 1):
                        assert nx.is_connected(h.subgraph(set(range(g.n)) - set(sub)))

    def test_vs_networkx_atlas(self):
        # every connected graph of the atlas: all 996 on 1-7 vertices
        checked = 0
        for h in nx.graph_atlas_g():
            if h.number_of_nodes() == 0 or not nx.is_connected(h):
                continue
            g = from_edges(h.number_of_nodes(), list(h.edges()))
            k, w = vertex_connectivity(g)
            assert k == nx.node_connectivity(h)
            if w is not None:
                assert len(w.cut) == k
                w.check(g)
            checked += 1
        assert checked == 996

    @pytest.mark.parametrize("p", [0.3, 0.5, 0.7])
    def test_vs_networkx_family_sizes(self, p):
        # the orders of the family workload, past the brute-force reach
        rng = random.Random(int(p * 10))
        for n in range(9, 17):
            for _ in range(10):
                g = random_graph(rng, n, p)
                k, w = vertex_connectivity(g)
                assert k == nx.node_connectivity(to_networkx(g))
                if w is not None:
                    assert len(w.cut) == k
                    w.check(g)

    def test_whitney_bound(self):
        rng = random.Random(22)
        for _ in range(60):
            g = random_graph(rng, rng.randint(2, 8))
            assert vertex_connectivity(g)[0] <= min_degree(g)


class TestCutWitness:
    @pytest.mark.parametrize("cut", [frozenset(), frozenset({0})])
    def test_rejects_empty_component(self, cut):
        sides = (frozenset(range(4)) - cut, frozenset())
        with pytest.raises(AssertionError, match="empty"):
            CutWitness(cut, sides).check(complete(4))

    def test_rejects_overlapping_components(self):
        with pytest.raises(AssertionError, match="two witness components"):
            CutWitness(frozenset(), ({0, 1}, {0, 1})).check(complete(2))
        with pytest.raises(AssertionError, match="two witness components"):
            CutWitness(frozenset({1}), ({0, 2}, {2})).check(path(3))


class TestSubsetRoute:
    def test_agrees_with_flow_route(self):
        rng = random.Random(23)
        graphs = [random_graph(rng, rng.randint(1, 8)) for _ in range(80)]
        # the census orders
        graphs += [random_graph(rng, n, p) for n in (8, 9, 10) for p in (0.3, 0.5, 0.7, 0.9)
                   for _ in range(5)]
        for g in graphs:
            kappa = vertex_connectivity(g)[0]
            want = nx.node_connectivity(to_networkx(g))
            for k in range(-2, g.n + 2):
                assert connectivity_at_most(g, k) == (kappa <= k) == (want <= k)

    def test_atlas_against_definition(self):
        # every atlas graph on 1-7 vertices, the disconnected ones included:
        # kappa(G) <= k, and k-connected means n > k and kappa(G) >= k
        checked = 0
        for h in nx.graph_atlas_g():
            n = h.number_of_nodes()
            if n == 0:
                continue
            g = from_edges(n, list(h.edges()))
            kappa = nx.node_connectivity(h)
            for k in range(-2, n + 2):
                assert connectivity_at_most(g, k) == (kappa <= k)
            for k in range(1, n + 2):
                assert is_k_connected(g, k) == (n > k and kappa >= k)
            checked += 1
        assert checked == 1252

    def test_negative_k_is_false(self):
        # kappa >= 0 for every graph, the disconnected ones included
        for g in (disjoint_union(complete(2), complete(2)), complete(1), path(4)):
            assert not connectivity_at_most(g, -1)


class TestIsKConnected:
    def test_complete_clause(self):
        assert is_k_connected(complete(3), 2)
        assert is_k_connected(complete(2), 1)
        assert not is_k_connected(path(3), 2)

    def test_path_not_2_connected(self):
        assert not is_k_connected(path(4), 2)
        assert is_k_connected(path(4), 1)

    def test_extremal_threshold(self):
        g = extremal_graph(ExtremalParams(8, 3, 4))
        assert is_k_connected(g, 3)
        assert not is_k_connected(g, 4)

    def test_rejects_k0(self):
        with pytest.raises(ValueError):
            is_k_connected(complete(3), 0)


class TestMengerConsistency:
    def test_flow_equals_min_cut_over_pairs(self):
        # max vertex-disjoint path count == min separating set, spot-checked
        # by brute force over all separators for random non-adjacent pairs
        rng = random.Random(24)
        checked = 0
        while checked < 200:
            g = random_connected_graph(rng, rng.randint(4, 8))
            pairs = [(u, v) for u in range(g.n) for v in range(u + 1, g.n)
                     if not g.has_edge(u, v)]
            if not pairs:
                continue
            u, v = pairs[rng.randrange(len(pairs))]
            flow, _ = _split_maxflow(neighbour_lists(g), u, v, cap_limit=g.n)
            h = to_networkx(g)
            best = None
            others = [w for w in range(g.n) if w not in (u, v)]
            for size in range(len(others) + 1):
                for combo in combinations(others, size):
                    if not nx.has_path(h.subgraph(set(range(g.n)) - set(combo)), u, v):
                        best = size
                        break
                if best is not None:
                    break
            assert flow == best
            checked += 1


def to_networkx(g):
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from((u, v) for u in range(g.n) for v in g.neighbors(u) if u < v)
    return h


def neighbour_lists(g):
    return [g.neighbors(v) for v in range(g.n)]


def residual_cut(parent):
    """Vertices whose split in-node is reached and out-node is not."""
    return {v for v in range(len(parent) // 2) if parent[2 * v] >= 0 > parent[2 * v + 1]}


def chain(*vs):
    return list(zip(vs, vs[1:]))


class TestSplitMaxflow:
    # s = 0, t = 4.  In each graph the unique shortest s-t path, which BFS
    # augments first, blocks a second disjoint path, so a later unit must
    # cancel flow on it.
    REROUTES = {
        # chord 1-7 on s-1-2-3-t and s-5-6-7-t: the second unit cancels 1 -> 7
        "arc": (chain(0, 1, 2, 3, 4) + chain(0, 5, 6, 7, 4) + [(1, 7)], 2, {1, 5}),
        # s-1-2-3-t, entered at 3 and left at 1: the second unit runs back
        # through all of vertex 2 (the reverse split arc) and frees it
        "vertex": (chain(0, 1, 2, 3, 4) + chain(0, 5, 6, 7, 3) + chain(1, 8, 9, 10, 4),
                   2, {1, 5}),
        # as "vertex", and the third unit needs vertex 2 once it is free
        "freed": (chain(0, 1, 2, 3, 4) + chain(0, 5, 6, 7, 3) + chain(1, 8, 9, 10, 4)
                  + chain(0, 11, 12, 13, 14, 15, 2) + chain(2, 16, 17, 18, 19, 20, 4),
                  3, {1, 5, 11}),
    }

    @pytest.mark.parametrize("name", sorted(REROUTES))
    def test_later_unit_cancels_earlier_flow(self, name):
        edges, want, want_cut = self.REROUTES[name]
        h = nx.Graph(edges)
        assert len(list(nx.all_shortest_paths(h, 0, 4))) == 1
        assert local_node_connectivity(h, 0, 4) == want
        g = from_edges(h.number_of_nodes(), edges)
        flow, parent = _split_maxflow(neighbour_lists(g), 0, 4, cap_limit=g.n)
        assert flow == want
        assert residual_cut(parent) == want_cut

    @pytest.mark.parametrize("p", [0.3, 0.5, 0.7])
    def test_vs_networkx_local_connectivity(self, p):
        rng = random.Random(100 + int(p * 10))
        checked = 0
        while checked < 60:
            g = random_graph(rng, rng.randint(9, 16), p)
            pairs = [(u, v) for u in range(g.n) for v in range(u + 1, g.n)
                     if not g.has_edge(u, v)]
            if not pairs:
                continue
            s, t = pairs[rng.randrange(len(pairs))]
            flow, parent = _split_maxflow(neighbour_lists(g), s, t, cap_limit=g.n)
            assert flow == local_node_connectivity(to_networkx(g), s, t)
            cut = residual_cut(parent)
            assert len(cut) == flow and not cut & {s, t}
            assert not nx.has_path(to_networkx(g).subgraph(set(range(g.n)) - cut), s, t)
            checked += 1

    def test_cap_limit_exits_early(self):
        rng = random.Random(26)
        for _ in range(40):
            g = random_connected_graph(rng, rng.randint(4, 14), rng.choice([0.3, 0.5, 0.7]))
            pairs = [(u, v) for u in range(g.n) for v in range(u + 1, g.n)
                     if not g.has_edge(u, v)]
            if not pairs:
                continue
            s, t = pairs[rng.randrange(len(pairs))]
            nbrs = neighbour_lists(g)
            true = local_node_connectivity(to_networkx(g), s, t)
            uncapped_cut = residual_cut(_split_maxflow(nbrs, s, t, cap_limit=g.n)[1])
            for c in range(true + 2):
                flow, parent = _split_maxflow(nbrs, s, t, cap_limit=c)
                if true > c:
                    assert flow == c + 1 and parent is None
                else:
                    assert flow == true and residual_cut(parent) == uncapped_cut


class TestLemmaGuarantee:
    def test_examples(self):
        assert lemma_guarantee(8, 1, 6)          # 6 > 5.5
        assert not lemma_guarantee(8, 1, 5)      # 5 < 5.5
        # boundary is strict: delta = (n+k)/2 + 1 exactly must fail
        assert not lemma_guarantee(9, 1, 6)      # 6 > 6 fails
        assert not lemma_guarantee(6, 2, 5)      # 5 > 5 fails

    def test_exact_rational_boundary(self):
        from fractions import Fraction
        for n in range(3, 20):
            for k in range(1, n):
                for d in range(0, n):
                    want = Fraction(d) > Fraction(n + k, 2) + 1
                    assert lemma_guarantee(n, k, d) == want

    def test_implies_connectivity_small(self):
        # every graph on <= 6 vertices meeting the premise is (k+1)-connected
        rng = random.Random(25)
        for _ in range(300):
            n = rng.randint(3, 6)
            g = random_graph(rng, n, rng.uniform(0.5, 1.0))
            for k in range(1, n - 1):
                if lemma_guarantee(n, k, min_degree(g)):
                    assert is_k_connected(g, k + 1)
