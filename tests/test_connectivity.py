"""Vertex connectivity and the k-set decision, against networkx and brute
force: witnesses, the degree bounds, and the search's BFS counts."""

import random
from collections import Counter
from fractions import Fraction
from itertools import combinations

import networkx as nx
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from networkx.algorithms.connectivity import local_node_connectivity

from conftest import path, random_connected_graph, random_graph
from specrad import connectivity
from specrad.graphs import (
    ExtremalParams,
    complete,
    cycle,
    disjoint_union,
    extremal_graph,
    from_edges,
    is_connected,
    join,
    min_degree,
)
from specrad.connectivity import (
    CutWitness,
    connectivity_at_most,
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
        assert nx.number_connected_components(
            to_networkx(g).subgraph(set(range(g.n)) - w.cut)) == 2
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
                # the universal vertices lie in every separator, and so
                # does every vertex of degree >= n - delta + kappa - 1
                assert {v for v, d in h.degree() if d == g.n - 1} <= w.cut
                top = g.n - min_degree(g) + k - 1
                assert {v for v, d in h.degree() if d >= top} <= w.cut
            checked += 1
        assert checked == 996

    @pytest.mark.parametrize("p", [0.3, 0.5, 0.7, 0.9])
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

    def test_join_cut_holds_the_universal_vertices(self):
        # in K_j + H the j join vertices are universal, so every minimum
        # cut contains them and kappa = j + kappa(H) for non-complete H
        rng = random.Random(23)
        kinds = set()
        for p in (0.2, 0.6, 1.0):
            for _ in range(20):
                h = random_graph(rng, rng.randint(2, 10), p)
                kind = ("complete" if h.edge_count == h.n * (h.n - 1) // 2
                        else "connected" if nx.is_connected(to_networkx(h))
                        else "disconnected")
                kinds.add(kind)
                for j in range(1, 5):
                    g = join(complete(j), h)
                    k, w = vertex_connectivity(g)
                    if kind == "complete":
                        assert (k, w) == (g.n - 1, None)
                        continue
                    assert k == j + nx.node_connectivity(to_networkx(h))
                    assert set(range(j)) <= w.cut
                    w.check(g)
        assert kinds == {"complete", "connected", "disconnected"}

    def test_clique_joins_are_cut_by_their_universal_vertices(self, bfs_calls):
        # every family graph K_k + (K_a u K_b): the search at k = |U| is
        # one BFS on G - U, which finds it disconnected; when k = delta
        # there is no search, and a vertex of degree k has N(v) = U
        for n in range(3, 13):
            for kk in range(1, n - 1):
                for d in range(kk, n - 1):
                    g = extremal_graph(ExtremalParams(n, kk, d))
                    universal = {v for v, r in enumerate(g.rows) if r.bit_count() == n - 1}
                    bfs_calls.clear()
                    k, w = vertex_connectivity(g)
                    assert len(bfs_calls) == (kk < min_degree(g))
                    assert k == kk and w.cut == universal == set(range(kk))

    def test_whitney_bound(self):
        rng = random.Random(22)
        for _ in range(60):
            g = random_graph(rng, rng.randint(2, 8))
            assert vertex_connectivity(g)[0] <= min_degree(g)

    def test_search_stops_at_the_first_separating_k(self, monkeypatch):
        # the search runs for k = |U|, |U| + 1, ... and stops at kappa;
        # when kappa = delta it tries every k below delta and none separates
        calls = []
        real = connectivity._separated_rest

        def counting(rows, k, delta):
            calls.append(k)
            return real(rows, k, delta)

        monkeypatch.setattr(connectivity, "_separated_rest", counting)
        rng = random.Random(27)
        seen = set()
        for _ in range(80):
            g = random_connected_graph(rng, rng.randint(3, 10), rng.choice([0.4, 0.7, 0.9]))
            universal = sum(r.bit_count() == g.n - 1 for r in g.rows)
            if universal == g.n:
                continue
            delta = min_degree(g)
            calls.clear()
            k = vertex_connectivity(g)[0]
            assert calls == list(range(universal, min(k + 1, delta)))
            seen.add(k == delta)
        assert seen == {False, True}

    def test_whitney_fallback_cuts_a_minimum_degree_neighbourhood(self):
        # when no k-set below delta separates, the cut is N(v) for the
        # first vertex v of minimum degree
        rng = random.Random(28)
        checked = 0
        while checked < 40:
            g = random_connected_graph(rng, rng.randint(3, 10), 0.7)
            k, w = vertex_connectivity(g)
            delta = min_degree(g)
            if w is None or k < delta:
                continue
            v = next(v for v, r in enumerate(g.rows) if r.bit_count() == delta)
            assert w.cut == {u for u in range(g.n) if g.rows[v] >> u & 1}
            w.check(g)
            checked += 1

    @pytest.mark.parametrize("d", [3, 4, 5])
    def test_regular_graphs_force_no_vertex(self, d):
        # in a d-regular graph on 12 vertices no degree reaches
        # top = 11 - d + k, so the search has no forced set to start from
        kappas = set()
        for seed in range(8):
            h = nx.random_regular_graph(d, 12, seed=seed)
            if not nx.is_connected(h):
                continue
            g = from_edges(12, list(h.edges()))
            kappa = nx.node_connectivity(h)
            k, w = vertex_connectivity(g)
            assert k == kappa and len(w.cut) == k
            w.check(g)
            for j in range(-1, g.n + 1):
                assert connectivity_at_most(g, j) == (kappa <= j)
            kappas.add(kappa)
        assert kappas


class TestCutWitness:
    @pytest.mark.parametrize("g, cut", [
        (complete(4), frozenset()),
        (complete(4), frozenset({0})),
        (complete(2), frozenset()),
        (path(3), frozenset({0})),
        (path(3), frozenset({0, 1, 2})),  # all of V: no component left
        (path(4), frozenset({0, 1, 2})),  # one vertex left
    ], ids=["K4-empty", "K4-vertex", "K2-empty", "P3-end", "P3-all", "P4-one-left"])
    def test_rejects_non_separating_cut(self, g, cut):
        with pytest.raises(AssertionError, match="at least two components"):
            CutWitness(cut).check(g)

    def test_rejects_cut_outside_graph(self):
        with pytest.raises(AssertionError, match="99 is not a vertex"):
            CutWitness(frozenset({1, 99})).check(path(3))


class TestSubsetRoute:
    def test_agrees_with_networkx(self):
        rng = random.Random(23)
        graphs = [random_graph(rng, rng.randint(1, 8)) for _ in range(80)]
        # the census orders
        graphs += [random_graph(rng, n, p) for n in (8, 9, 10) for p in (0.3, 0.5, 0.7, 0.9)
                   for _ in range(5)]
        for g in graphs:
            kappa = nx.node_connectivity(to_networkx(g))
            assert vertex_connectivity(g)[0] == kappa
            for k in range(-2, g.n + 2):
                assert connectivity_at_most(g, k) == (kappa <= k)

    def test_atlas_against_definition(self):
        # every atlas graph on 1-7 vertices, the disconnected and complete ones
        # included: kappa(G) <= k for every k.
        # On K_n, 2*delta + 2 - n = n > kappa = n - 1: the degree lower bound
        # may only act for k <= n - 2, after the Whitney k >= delta exit
        checked = 0
        for h in nx.graph_atlas_g():
            n = h.number_of_nodes()
            if n == 0:
                continue
            g = from_edges(n, list(h.edges()))
            kappa = nx.node_connectivity(h)
            assert vertex_connectivity(g)[0] == kappa
            for k in range(-2, n + 2):
                assert connectivity_at_most(g, k) == (kappa <= k)
            checked += 1
        assert checked == 1252

    def test_negative_k_is_false(self):
        # kappa >= 0 for every graph, the disconnected ones included
        for g in (disjoint_union(complete(2), complete(2)), complete(1), path(4)):
            assert not connectivity_at_most(g, -1)


class TestMengerConsistency:
    def test_cut_separates_a_pair_of_least_local_connectivity(self):
        # Menger: for non-complete G, kappa(G) is the least number of
        # internally disjoint paths between two non-adjacent vertices,
        # which networkx counts by a max-flow; a pair that the witness
        # separates has exactly kappa of them
        rng = random.Random(24)
        checked = 0
        while checked < 60:
            g = random_connected_graph(rng, rng.randint(4, 9), rng.choice([0.3, 0.5, 0.7]))
            h = to_networkx(g)
            pairs = [(u, v) for u, v in combinations(range(g.n), 2) if not h.has_edge(u, v)]
            if not pairs:
                continue
            k, w = vertex_connectivity(g)
            assert k == min(local_node_connectivity(h, u, v) for u, v in pairs)
            sides = list(nx.connected_components(h.subgraph(set(range(g.n)) - w.cut)))
            assert len(sides) >= 2
            assert local_node_connectivity(h, min(sides[0]), min(sides[1])) == k
            checked += 1


def to_networkx(g):
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    return h


@pytest.fixture
def bfs_calls(monkeypatch):
    """Counts the bitset BFS calls that the k-set search makes."""
    calls = []
    real = connectivity._component_mask

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(connectivity, "_component_mask", counting)
    return calls


class TestDegreeBounds:
    def test_tight_on_atlas(self):
        # 2*delta + 2 - n <= kappa <= delta on every connected, non-complete
        # atlas graph, and some graph meets each end exactly
        low = high = checked = 0
        for h in nx.graph_atlas_g()[1:]:  # the first atlas graph has no vertices
            g = from_edges(h.number_of_nodes(), list(h.edges()))
            if g.edge_count == g.n * (g.n - 1) // 2 or not is_connected(g):
                continue
            kappa, delta = vertex_connectivity(g)[0], min_degree(g)
            assert 2 * delta + 2 - g.n <= kappa <= delta
            low += kappa == 2 * delta + 2 - g.n
            high += kappa == delta
            checked += 1
        assert checked == 996 - 7  # K_1, ..., K_7 left out
        assert low > 0 and high > 0

    @pytest.mark.parametrize("k, searched", [(0, False), (1, False), (2, True),
                                             (3, False), (4, False)])
    def test_search_runs_only_between_the_bounds(self, bfs_calls, k, searched):
        # K_{3,3}: delta = 3 and 2*delta + 2 - n = 2, so only k = 2 is
        # searched.  No vertex is forced, but all 9 edges are heavy
        # (|N(u) u N(v)| = 6 > n - delta + k - 1 = 4), and 2 vertices cover
        # no 3-edge matching: the search ends before its first BFS, where
        # trying every pair would take C(6, 2) = 15
        g = from_edges(6, [(i, j) for i in range(3) for j in range(3, 6)])
        assert connectivity_at_most(g, k) == (k >= 3)
        assert len(bfs_calls) == 0
        assert heavy_search(g, k) == ((2, 9) if searched else None)

    SEARCHED = {
        # n = 11, delta = 4, kappa = 3: the bounds leave k = 0..3 to the search
        "K3+4K2": join(complete(3), disjoint_union(
            disjoint_union(complete(2), complete(2)), disjoint_union(complete(2), complete(2)))),
        # n = 8, delta = 4, kappa = 4: the bounds leave k = 2, 3
        "K2+C6": join(complete(2), cycle(6)),
        # an atlas graph: n = 6, delta = 2, kappa = 2, and vertex 2 has
        # degree 4 = n - delta + 1 - 1 but is not universal
        "atlas6": from_edges(6, [(0, 1), (0, 5), (1, 2), (2, 3), (2, 4), (2, 5),
                                 (3, 4), (4, 5)]),
    }

    @pytest.mark.parametrize("name, k, calls", [
        # the 3 universal vertices are forced into every k-set and
        # outnumber k: False with no BFS; trying every k-set takes 1, 11, 55
        ("K3+4K2", 0, 0), ("K3+4K2", 1, 0), ("K3+4K2", 2, 0),
        # U itself is the one 3-set tried, and it separates
        ("K3+4K2", 3, 1),
        # U, then U with each of the 6 cycle vertices; every k-set: 28, 56
        ("K2+C6", 2, 1), ("K2+C6", 3, 6),
        # at k = 1 vertex 2 alone is forced, and it is the one set tried;
        # trying every 1-set, or every superset of the (empty) universal
        # set, would take 6
        ("atlas6", 1, 1),
    ])
    def test_search_tries_only_the_sets_holding_the_forced_vertices(
            self, bfs_calls, name, k, calls):
        g = self.SEARCHED[name]
        assert connectivity_at_most(g, k) == (nx.node_connectivity(to_networkx(g)) <= k)
        assert len(bfs_calls) == calls

    HEAVY = {
        # a 3-connected cubic graph on 8 vertices plus the edge 3-5: at k = 2,
        # top = n - delta + k - 1 = 6, no vertex is forced, and only edge 3-4
        # is heavy (N(3) u N(4) misses vertex 2 alone)
        "cubic8+e": from_edges(8, [(0, 2), (0, 4), (0, 6), (1, 3), (1, 5), (1, 6), (2, 5),
                                   (2, 7), (3, 4), (3, 5), (3, 7), (4, 6), (5, 7)]),
        # the cube Q_3 plus the face diagonal 0-3: at k = 2 the heavy edges
        # are 0-4 and 3-7, a matching
        "Q3+diag": from_edges(8, [(u, u ^ b) for u in range(8) for b in (1, 2, 4)
                                  if u < u ^ b] + [(0, 3)]),
        # n = 9, delta = 4, kappa = 4: at k = 3, top = 7, vertex 2 (degree 7)
        # is forced and 0-1 is the one heavy edge of G - 2
        "forced+heavy": from_edges(9, [(0, 1), (0, 3), (0, 7), (0, 8), (1, 2), (1, 4), (1, 5),
                                       (1, 6), (2, 3), (2, 4), (2, 5), (2, 6), (2, 7), (2, 8),
                                       (3, 5), (3, 8), (4, 6), (4, 7), (5, 6), (7, 8)]),
        # two 4-cycles 0-1-6-5 and 2-3-4-6 sharing vertex 6: at k = 1,
        # top = 5, no vertex is forced, and the heavy edges are the four at 6
        "2C4": from_edges(7, [(0, 1), (0, 5), (1, 6), (2, 3), (2, 6), (3, 4), (4, 6), (5, 6)]),
        # n = 7, delta = 2, kappa = 2: at k = 1, top = 5, no vertex is
        # forced, and the heavy edges hold the matching 0-5, 1-4
        "matching": from_edges(7, [(0, 5), (0, 6), (1, 4), (1, 6), (2, 4), (2, 5), (2, 6),
                                   (3, 4), (3, 5), (3, 6), (4, 5)]),
    }

    @pytest.mark.parametrize("name, k, calls", [
        # every 2-separator holds 3 or 4: take 3 and try the 7 others, or
        # ban 3, take 4 and try the 6 others; C(8, 2) = 28 without the rule
        ("cubic8+e", 2, 7 + 6),
        # each heavy edge leaves 2 branches, 2 x 2 sets where C(8, 2) = 28
        ("Q3+diag", 2, 4),
        # vertex 2 joined with 0 and one of 7 others, or with 1 and one of
        # 6; C(8, 2) = 28 supersets of the forced set without the rule
        ("forced+heavy", 3, 7 + 6),
        # one pick: taking 1 leaves 2-6 uncovered, so 6 is the one set
        # tried; trying every 1-set takes 7
        ("2C4", 1, 1),
        # one pick covers no two disjoint heavy edges: False with no BFS
        ("matching", 1, 0),
    ])
    def test_search_branches_on_the_heavy_edges(self, bfs_calls, name, k, calls):
        # an edge uv with |N(u) u N(v)| > n - delta + k - 1 has an end in
        # every k-separator: otherwise its side would hold more than
        # n - delta - 1 vertices
        g = self.HEAVY[name]
        assert connectivity_at_most(g, k) == (nx.node_connectivity(to_networkx(g)) <= k)
        assert len(bfs_calls) == calls

    def test_heavy_matching_larger_than_the_picks_ends_the_walk(self, monkeypatch):
        # the heavy edges 0-5 and 1-4 are disjoint, so one pick covers
        # neither pair: False before any branching search
        def no_search(*args):
            raise AssertionError("the search should not run")

        monkeypatch.setattr(connectivity, "_cut_within", no_search)
        assert connectivity_at_most(self.HEAVY["matching"], 1) is False

    FORCED = {
        # K_{2,3} with an edge in the 3-side: n = 5, delta = 2, kappa = 2;
        # at k = 1 the four vertices of degree >= 3 must all be in the cut
        "K23+e": from_edges(5, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4), (2, 4)]),
        # P_4: n = 4, delta = 1; at k = 0 both inner vertices are forced
        "P4": path(4),
        # 2K_3: n = 6, delta = 2; at k = 0 no vertex has degree >= 3, and
        # the one BFS finds the graph disconnected
        "2K3": disjoint_union(complete(3), complete(3)),
    }

    @pytest.mark.parametrize("name, k, calls", [
        # no vertex is universal: trying every k-set, or every superset of
        # the universal vertices, would take C(5, 1) = 5 and 1 BFS calls
        ("K23+e", 1, 0), ("P4", 0, 0),
        ("2K3", 0, 1),
    ])
    def test_forced_vertices_outnumbering_k_settle_without_search(
            self, bfs_calls, name, k, calls):
        # a vertex of degree >= n - delta + k - 1 lies in every k-separator
        g = self.FORCED[name]
        assert connectivity_at_most(g, k) == (nx.node_connectivity(to_networkx(g)) <= k)
        assert len(bfs_calls) == calls


@st.composite
def small_graphs(draw, max_n=12):
    """n <= max_n vertices; the drawn edges, or their complement for dense graphs."""
    n = draw(st.integers(1, max_n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    drawn = draw(st.sets(st.sampled_from(pairs), max_size=3 * n)) if pairs else set()
    if draw(st.booleans()):
        drawn = set(pairs) - drawn
    return from_edges(n, drawn)


def assert_witnessed(g, kappa):
    """vertex_connectivity(g) gives kappa and, unless g is complete, a
    witness of kappa vertices that separates."""
    k, w = vertex_connectivity(g)
    assert k == kappa
    if w is not None:
        assert len(w.cut) == kappa
        w.check(g)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(small_graphs())
@example(complete(12))
@example(join(complete(2), cycle(6)))
@example(from_edges(12, [(i, j) for i in range(12) for j in range(i + 2, 12)]))  # P_12 complement
def test_decision_matches_vertex_connectivity(g):
    # complements of sparse draws are dense graphs, where the lower bound acts
    kappa = nx.node_connectivity(to_networkx(g))
    assert_witnessed(g, kappa)
    for k in range(-1, g.n + 2):
        assert connectivity_at_most(g, k) == (kappa <= k)


@pytest.mark.parametrize("k", [1.5, 2.0, 1.0, Fraction(1), None], ids=repr)
@pytest.mark.parametrize("g", [path(4), from_edges(6, [(i, j) for i in range(3) for j in range(3, 6)]),
                               cycle(6)], ids=["P4", "K33", "C6"])
def test_decision_takes_integer_k_only(g, k):
    # a float k would reach a different exit on each graph: P_4 at 1.5 is
    # past Whitney's bound, K_{3,3} at 2.0 ends in the heavy-edge branching
    # and C_6 at 1.0 in the k-set loop
    with pytest.raises(TypeError):
        connectivity_at_most(g, k)


def test_decision_takes_numpy_integers():
    g = join(complete(2), cycle(6))
    for k in range(-1, g.n + 2):
        assert connectivity_at_most(g, np.int64(k)) == connectivity_at_most(g, k)


@st.composite
def tight_side_graphs(draw):
    """Dense graphs on 8-12 vertices where the side-size bound is tight.

    K_s + (K_a u K_b) with a <= b, minus drawn edges that miss the clique
    side A, relabelled: A keeps degree a - 1 + s, so a side of the cut
    the join leaves can have just delta - k + 1 vertices, and the other
    side's edges sit at the heavy threshold.
    """
    n = draw(st.integers(8, 12))
    s = draw(st.integers(2, n - 2))
    a = draw(st.integers(1, (n - s) // 2))
    side = [0] * s + [1] * a + [2] * (n - s - a)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if {side[i], side[j]} != {1, 2}]
    loose = [(i, j) for i, j in pairs if 1 not in (side[i], side[j])]
    dropped = draw(st.sets(st.sampled_from(loose), max_size=n))
    label = draw(st.permutations(range(n)))
    return from_edges(n, [(label[i], label[j]) for i, j in pairs if (i, j) not in dropped])


def heavy_search(g, k):
    """(picks, heavy edges) of the search connectivity_at_most runs at k, or None.

    Recomputed from the definitions: picks = k - |F|, and a heavy edge
    of G - F has |N(u) u N(v)| > n - delta + k - 1.
    """
    h = to_networkx(g)
    n, delta = g.n, min_degree(g)
    if not 2 * delta + 2 - n <= k < delta:
        return None
    top = n - delta + k - 1
    forced = {v for v in h if h.degree(v) >= top}
    heavy = [(u, v) for u, v in h.edges()
             if not {u, v} & forced and len(set(h[u]) | set(h[v])) > top]
    return k - len(forced), len(heavy)


def test_branching_search_matches_vertex_connectivity():
    # the draws must reach the search that branches on heavy edges, with
    # one pick and with more, each with both answers: a threshold of >=
    # for > or a search without its "ban u, take v" branch gives a wrong
    # answer on some of them
    reached = Counter()

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(tight_side_graphs())
    def check(g):
        kappa = nx.node_connectivity(to_networkx(g))
        assert_witnessed(g, kappa)
        for k in range(-1, g.n + 2):
            assert connectivity_at_most(g, k) == (kappa <= k)
            search = heavy_search(g, k)
            if search and search[0] >= 1 and search[1] >= 1:
                reached[min(search[0], 2), kappa <= k] += 1

    check()
    assert all(reached[picks, answer] > 0 for picks in (1, 2) for answer in (True, False))
