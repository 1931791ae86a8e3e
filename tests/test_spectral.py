"""Spectra: LAPACK eigenpairs, exact characteristic polynomials.

The float routes are numpy's LAPACK; a cyclic Jacobi solver in plain
numpy, kept here, is the independent reference they are checked
against.  Two oracles check the exact characteristic polynomial: a
cofactor-expansion determinant over integer polynomials for small
orders, and the integral Faddeev-LeVerrier recurrence in plain Python
integers for every order up to 32 -- a route independent of the power
traces and Newton's identities that int_charpoly uses.
"""

import math
import random

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_connected_graph, random_graph
from specrad import exactroots, spectral
from specrad.graphs import (
    ExtremalParams,
    Graph,
    complete,
    cycle,
    disjoint_union,
    extremal_graph,
    from_edges,
    is_connected,
    join,
    path,
    star,
)
from specrad.spectral import (
    CHARPOLY_PRIMES,
    IntCharPoly,
    Ordering,
    charpoly_bound,
    exact_compare_rho,
    full_spectrum,
    int_charpoly,
    perron,
    perron_rho_batch,
)

PAW = extremal_graph(ExtremalParams(4, 1, 1))
PAW_RHO = 2.170086486626034  # largest root of x^3 - x^2 - 3x + 1, bisected by hand


# -- oracle: determinant of xI - A by cofactor expansion ----------------

def _poly_add(a, b):
    out = [0] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] += c
    return tuple(out)

def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return tuple(out)

def _poly_det(mat):
    n = len(mat)
    if n == 1:
        return mat[0][0]
    acc = (0,)
    for j in range(n):
        if mat[0][j] == (0,):
            continue
        minor = [row[:j] + row[j + 1 :] for row in mat[1:]]
        term = _poly_mul(mat[0][j], _poly_det(minor))
        if j % 2:
            term = tuple(-c for c in term)
        acc = _poly_add(acc, term)
    return acc

def charpoly_oracle(g):
    n = g.n
    mat = [[((0, 1) if i == j else ((-1,) if g.has_edge(i, j) else (0,)))
            for j in range(n)] for i in range(n)]
    raw = _poly_det(mat)
    return tuple(raw[i] if i < len(raw) else 0 for i in range(n + 1))


# -- oracle: integral Faddeev-LeVerrier in Python integers -----------------

def faddeev_leverrier_charpoly(g):
    """det(xI - A) by M <- A M + c I over the integers, ascending coefficients.

    The auxiliary matrices stay integral, so the trace division by the
    step index is exact; asserted, not assumed.  Row i of A is the
    bitmask g.rows[i], so asymmetric rows are taken as they are.
    """
    n = g.n
    rows = g.rows
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    cs = [1]  # descending: coefficient of x^n first
    for step in range(1, n + 1):
        am = []
        for i in range(n):
            acc = [0] * n
            mask = rows[i]
            while mask:
                bit = mask & -mask
                t = bit.bit_length() - 1
                mask ^= bit
                mt = m[t]
                for j in range(n):
                    acc[j] += mt[j]
            am.append(acc)
        tr = sum(am[i][i] for i in range(n))
        q, r = divmod(-tr, step)
        assert r == 0, "Faddeev-LeVerrier trace division must be exact"
        cs.append(q)
        for i in range(n):
            am[i][i] += q
        m = am
    return tuple(reversed(cs))


def _charpoly_and_reductions(monkeypatch, g):
    """int_charpoly(g).coeffs and the number of np.fmod calls it made."""
    fmod = np.fmod
    calls = []

    def counting_fmod(*args, **kwargs):
        calls.append(1)
        return fmod(*args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(np, "fmod", counting_fmod)
        coeffs = int_charpoly(g).coeffs
    return coeffs, len(calls)


# -- reference: cyclic Jacobi rotations --------------------------------------

def jacobi_eigenvalues(m, off_factor=1e-12, max_sweeps=64):
    """All eigenvalues of a symmetric matrix, ascending, by cyclic Jacobi rotations.

    Sweeps until the off-diagonal Frobenius mass drops below
    off_factor * ||m||_F; no LAPACK call is involved.
    """
    a = np.array(m, dtype=float)
    a = (a + a.T) / 2.0
    n = a.shape[0]
    norm = np.linalg.norm(a)
    if n <= 1 or norm == 0.0:
        return np.sort(np.diag(a))
    target = off_factor * norm
    offdiag = np.ones((n, n)) - np.eye(n)
    for _ in range(max_sweeps):
        if float(np.linalg.norm(a * offdiag)) <= target:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if apq == 0.0:
                    continue
                theta = (a[q, q] - a[p, p]) / (2.0 * apq)
                t = math.copysign(1.0, theta) / (abs(theta) + math.hypot(theta, 1.0))
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                app, aqq = a[p, p], a[q, q]
                rp = a[p, :].copy()
                rq = a[q, :].copy()
                a[p, :] = c * rp - s * rq
                a[q, :] = s * rp + c * rq
                cp = a[:, p].copy()
                cq = a[:, q].copy()
                a[:, p] = c * cp - s * cq
                a[:, q] = s * cp + c * cq
                a[p, p] = app - t * apq
                a[q, q] = aqq + t * apq
                a[p, q] = a[q, p] = 0.0
    else:
        raise RuntimeError("Jacobi sweeps did not reduce off-diagonal mass")
    return np.sort(np.diag(a))


def _is_prime(n):
    """Deterministic Miller-Rabin; these bases decide every n < 3.3e24."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n < 2:
        return False
    for b in bases:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in bases:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class TestPerron:
    def test_complete(self):
        pp = perron(complete(6))
        assert pp.rho == pytest.approx(5.0, abs=1e-10)
        assert np.min(pp.vec) > 0

    def test_star(self):
        assert perron(star(4)).rho == pytest.approx(2.0, abs=1e-10)

    def test_paw(self):
        assert perron(PAW).rho == pytest.approx(PAW_RHO, abs=1e-5)

    def test_rejects_disconnected(self):
        with pytest.raises(ValueError, match="connected"):
            perron(disjoint_union(complete(2), complete(2)))

    def test_single_vertex(self):
        pp = perron(complete(1))
        assert pp.rho == 0.0 and pp.vec[0] == pytest.approx(1.0)

    def test_gate_checks_every_pair(self, monkeypatch):
        rho, vec = spectral._top_pair(PAW.adjacency_matrix())
        monkeypatch.setattr(spectral, "_top_pair", lambda a: (rho + 1e-6, vec))
        with pytest.raises(AssertionError, match="residual"):
            perron(PAW)
        monkeypatch.setattr(spectral, "_top_pair", lambda a: (rho, -vec))
        with pytest.raises(AssertionError, match="non-positive"):
            perron(PAW)

    def test_gate_rejects_non_finite(self):
        a = complete(3).adjacency_matrix()
        unit = np.ones(3) / math.sqrt(3)
        for rho, vec, why in ((math.nan, np.full(3, math.nan), "radius is not finite"),
                              (math.inf, unit, "radius is not finite"),
                              (2.0, np.array([math.nan, 1.0, 1.0]), "not unit length")):
            with pytest.raises(AssertionError, match=why):
                spectral.PerronPair(rho, vec).check(a)

    @pytest.mark.parametrize("n", [2, 5, 9])
    def test_residual_on_complete(self, n):
        a = complete(n).adjacency_matrix()
        pp = perron(complete(n))
        assert pp.residual(a) <= spectral.RESIDUAL_FACTOR * max(1.0, pp.rho)
        exact = spectral.PerronPair(float(n - 1), np.ones(n) / math.sqrt(n))
        assert exact.residual(a) <= 1e-12
        # (A - (n-1)I)(1 + d e_0) = d (1 - n e_0), so the largest entry
        # of the normalized vector's residual is (n-1) d / |1 + d e_0|
        d = 1e-3
        w = np.ones(n)
        w[0] += d
        off = spectral.PerronPair(float(n - 1), w / np.linalg.norm(w))
        want = (n - 1) * d / math.sqrt(n - 1 + (1 + d) ** 2)
        assert off.residual(a) == pytest.approx(want, rel=1e-9)
        with pytest.raises(AssertionError, match=f"residual {want:.3e}"):
            off.check(a)

    def test_positivity_random(self):
        rng = random.Random(1)
        for _ in range(50):
            g = random_connected_graph(rng, rng.randint(2, 9))
            pp = perron(g)
            assert np.min(pp.vec) > 0
            assert abs(np.linalg.norm(pp.vec) - 1) <= 1e-12

    def test_vs_numpy_oracle(self):
        rng = random.Random(2)
        for _ in range(60):
            g = random_connected_graph(rng, rng.randint(2, 10))
            lam = np.linalg.eigvalsh(g.adjacency_matrix())[-1]
            assert perron(g).rho == pytest.approx(lam, abs=1e-10)

    def test_rayleigh_bound(self):
        # x^T A x <= rho for every unit vector
        rng = random.Random(3)
        for _ in range(10):
            g = random_connected_graph(rng, 8)
            a = g.adjacency_matrix()
            rho = perron(g).rho
            for _ in range(100):
                y = np.array([rng.gauss(0, 1) for _ in range(8)])
                y /= np.linalg.norm(y)
                assert y @ a @ y <= rho + 1e-9

    def test_subgraph_strict_monotonicity(self):
        # removing an edge from a connected graph strictly lowers rho
        rng = random.Random(4)
        done = 0
        while done < 40:
            g = random_connected_graph(rng, rng.randint(3, 9))
            edges = list(g.edges())
            rng.shuffle(edges)
            for e in edges:
                h = from_edges(g.n, [f for f in g.edges() if f != e])
                from specrad.graphs import is_connected
                if is_connected(h):
                    assert perron(h).rho < perron(g).rho - 1e-12
                    done += 1
                    break

    def test_degree_bounds(self):
        rng = random.Random(5)
        for _ in range(40):
            g = random_connected_graph(rng, rng.randint(2, 9))
            degs = g.degrees()
            rho = perron(g).rho
            avg = sum(degs) / g.n
            assert avg - 1e-9 <= rho <= max(degs) + 1e-9
            regular = len(set(degs)) == 1
            if regular:
                assert rho == pytest.approx(degs[0], abs=1e-9)
            else:
                assert rho > avg + 1e-9 and rho < max(degs) - 1e-9


class TestBatch:
    def test_matches_scalar(self):
        rng = random.Random(6)
        graphs = [random_connected_graph(rng, 7) for _ in range(64)]
        mats = np.stack([g.adjacency_matrix() for g in graphs])
        rhos = perron_rho_batch(mats)
        for g, r in zip(graphs, rhos):
            assert r == pytest.approx(perron(g).rho, abs=1e-9)

    def test_grouping_invariance(self):
        # per-graph trajectories must not depend on batch composition
        rng = random.Random(7)
        graphs = [random_connected_graph(rng, 6) for _ in range(32)]
        mats = np.stack([g.adjacency_matrix() for g in graphs])
        whole = perron_rho_batch(mats)
        split = np.concatenate([perron_rho_batch(mats[:5]),
                                perron_rho_batch(mats[5:17]),
                                perron_rho_batch(mats[17:])])
        assert np.array_equal(whole, split)

    def test_rejects_non_finite(self):
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="finite"):
                perron_rho_batch(np.array([[[bad, 0.0], [0.0, 0.0]]]))


class TestJacobi:
    """full_spectrum (LAPACK) against the Jacobi reference and known spectra."""

    def test_k3(self):
        a = complete(3).adjacency_matrix()
        assert np.allclose(full_spectrum(a), [-1, -1, 2], atol=1e-10)
        assert np.allclose(jacobi_eigenvalues(a), [-1, -1, 2], atol=1e-10)

    def test_c5_largest(self):
        a = cycle(5).adjacency_matrix()
        assert full_spectrum(a)[-1] == pytest.approx(2.0, abs=1e-10)
        assert jacobi_eigenvalues(a)[-1] == pytest.approx(2.0, abs=1e-10)

    def test_extremal_agrees_with_perron(self):
        g = extremal_graph(ExtremalParams(7, 2, 3))
        a = g.adjacency_matrix()
        assert jacobi_eigenvalues(a)[-1] == pytest.approx(perron(g).rho, abs=1e-9)
        assert full_spectrum(a)[-1] == pytest.approx(perron(g).rho, abs=1e-9)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            full_spectrum(np.array([[0.0, 1.0], [0.5, 0.0]]))
        with pytest.raises(ValueError, match="square"):
            full_spectrum(np.zeros((2, 3)))

    def test_rejects_non_finite(self):
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="finite"):
                full_spectrum([[bad, 0.0], [0.0, 0.0]])

    def test_vs_numpy_oracle(self):
        rng = random.Random(8)
        for _ in range(40):
            n = rng.randint(1, 12)
            a = random_graph(rng, n).adjacency_matrix()
            mine = np.array(full_spectrum(a))
            assert np.max(np.abs(mine - jacobi_eigenvalues(a))) <= 1e-9
            assert np.max(np.abs(mine - np.linalg.eigvalsh(a))) <= 1e-12

    def test_general_symmetric(self):
        rng = np.random.default_rng(9)
        for n in (2, 5, 16, 33):
            m = rng.normal(size=(n, n))
            m = (m + m.T) / 2
            mine = np.array(full_spectrum(m))
            ref = jacobi_eigenvalues(m)
            assert np.max(np.abs(mine - ref)) <= 1e-9 * max(1, np.abs(ref).max())

    def test_trace_identities(self):
        rng = random.Random(10)
        for _ in range(30):
            n = rng.randint(2, 10)
            g = random_graph(rng, n)
            a = g.adjacency_matrix()
            for eigs in (full_spectrum(a), jacobi_eigenvalues(a)):
                assert abs(sum(eigs)) <= 1e-9 * n
                assert abs(sum(e * e for e in eigs) - 2 * g.edge_count) <= 1e-8 * n


class TestIntCharpoly:
    def test_k3(self):
        assert int_charpoly(complete(3)).coeffs == (-2, -3, 0, 1)

    def test_paw_against_hand_expansion(self):
        # (x^3 - x^2 - 3x + 1)(x + 1) = x^4 - 4x^2 - 2x + 1
        assert int_charpoly(PAW).coeffs == (1, -2, -4, 0, 1)
        assert charpoly_oracle(PAW) == (1, -2, -4, 0, 1)

    def test_against_cofactor_oracle_random(self):
        rng = random.Random(11)
        for _ in range(40):
            g = random_graph(rng, rng.randint(1, 6))
            assert int_charpoly(g).coeffs == charpoly_oracle(g)

    def test_edge_count_coefficient(self):
        rng = random.Random(12)
        for _ in range(100):
            g = random_graph(rng, rng.randint(2, 10))
            c = int_charpoly(g).coeffs
            assert c[-1] == 1
            assert c[-2] == 0
            assert c[-3] == -g.edge_count

    def test_consistent_with_jacobi(self):
        rng = random.Random(13)
        for _ in range(20):
            g = random_graph(rng, rng.randint(2, 8))
            cp = int_charpoly(g)
            for lam in jacobi_eigenvalues(g.adjacency_matrix()):
                assert abs(cp.evaluate(lam)) <= 1e-6

    def test_order_cap(self):
        with pytest.raises(ValueError, match="32"):
            int_charpoly(path(33))

    def test_against_reference_every_order(self):
        rng = random.Random(16)
        for n in range(1, 33):
            for p in (0.2, 0.5, 0.9):
                g = random_graph(rng, n, p)
                assert int_charpoly(g).coeffs == faddeev_leverrier_charpoly(g), (n, p)

    def test_against_reference_order_32(self):
        empty16 = from_edges(16, [])
        for g in (complete(32), join(empty16, empty16), star(31),
                  extremal_graph(ExtremalParams(32, 5, 13))):
            assert g.n == 32
            assert int_charpoly(g).coeffs == faddeev_leverrier_charpoly(g)

    def test_asymmetric_rows_within_bound(self):
        # a malformed Graph (directed rows) still gets det(xI - A) exactly
        rng = random.Random(17)
        for n in (7, 20, 32):
            rows = tuple(sum(1 << j for j in range(n) if j != i and rng.random() < 0.6)
                         for i in range(n))
            g = Graph(n, rows)
            assert int_charpoly(g).coeffs == faddeev_leverrier_charpoly(g)

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(st.data())
    def test_against_reference_any_rows(self, data):
        # arbitrary row bitmasks: asymmetric and looped rows included
        n = data.draw(st.integers(1, 32), label="n")
        rows = data.draw(st.lists(st.integers(0, (1 << n) - 1), min_size=n, max_size=n),
                         label="rows")
        g = Graph(n, rows)
        assert int_charpoly(g).coeffs == faddeev_leverrier_charpoly(g)

    def test_reductions_keep_order_32_exact(self, monkeypatch):
        rng = random.Random(19)
        ones = Graph(32, ((1 << 32) - 1,) * 32)
        for g in (ones, complete(32), random_graph(rng, 32, 0.9)):
            coeffs, reductions = _charpoly_and_reductions(monkeypatch, g)
            assert reductions > 0
            assert coeffs == faddeev_leverrier_charpoly(g)

    def test_sparse_order_12_needs_no_reduction(self, monkeypatch):
        # small row sums keep 12 * dmax * 2 * dmax^11, the bound on the
        # last product's trace, below 2^53 without any reduction
        g = random_graph(random.Random(20), 12, 0.25)
        coeffs, reductions = _charpoly_and_reductions(monkeypatch, g)
        assert reductions == 0
        assert coeffs == faddeev_leverrier_charpoly(g)

    def test_prime_constants(self):
        assert len(set(CHARPOLY_PRIMES)) == len(CHARPOLY_PRIMES)
        for p in CHARPOLY_PRIMES:
            assert _is_prime(p)
            assert p > 32  # every Newton divisor k <= n has an inverse modulo M
        # a reduced power (entries below max p) times rows of at most 32 ones,
        # and the trace of that product, stay exact in float64
        assert 32 * 32 * max(CHARPOLY_PRIMES) < 2**53
        # K_32, and an all-ones 32 x 32 matrix (the most a malformed Graph can hold)
        assert math.prod(CHARPOLY_PRIMES) > 2 * charpoly_bound(32, 32 * 31)
        assert math.prod(CHARPOLY_PRIMES) > 2 * charpoly_bound(32, 32 * 32)

    def test_bound_is_the_largest_term(self):
        # the maximum over every k of isqrt(C(n, k)^2 ones^k // n^k) + 1
        def max_over_terms(n, ones):
            return max(math.isqrt(math.comb(n, k) ** 2 * ones**k // n**k) + 1
                       for k in range(n + 1))
        for n in range(1, 33):
            for ones in range(n * n + 1):
                assert charpoly_bound(n, ones) == max_over_terms(n, ones), (n, ones)

    def test_bound_covers_coefficients(self):
        rng = random.Random(18)
        graphs = [complete(32), star(31), complete(1)]
        graphs += [random_graph(rng, n, 0.8) for n in (5, 17, 32)]
        for g in graphs:
            c = int_charpoly(g).coeffs
            assert max(abs(x) for x in c) <= charpoly_bound(g.n, 2 * g.edge_count)
        # the all-ones matrix: det(xI - J) = x^(n-1) (x - n)
        for n in (1, 6, 32):
            j = Graph(n, ((1 << n) - 1,) * n)
            assert int_charpoly(j).coeffs == (0,) * (n - 1) + (-n, 1)
            assert n <= charpoly_bound(n, n * n)


class TestExactCompare:
    def test_proper_subgraph_strict(self):
        k4 = complete(4)
        k4e = from_edges(4, [e for e in k4.edges() if e != (2, 3)])
        assert exact_compare_rho(k4, k4e) is Ordering.GREATER
        assert exact_compare_rho(k4e, k4) is Ordering.LESS

    def test_self_equal_poly(self):
        g = random_connected_graph(random.Random(14), 7)
        assert exact_compare_rho(g, g) is Ordering.EQUAL_POLY

    def test_c4_vs_star(self):
        assert exact_compare_rho(cycle(4), star(3)) is Ordering.GREATER

    def test_equal_rho_different_poly(self):
        assert exact_compare_rho(cycle(4), cycle(5)) is Ordering.EQUAL_RHO

    def test_relabeled_copies(self):
        g = extremal_graph(ExtremalParams(6, 2, 3))
        perm = [3, 0, 5, 1, 4, 2]
        h = from_edges(6, [(perm[u], perm[v]) for u, v in g.edges()])
        assert exact_compare_rho(g, h) is Ordering.EQUAL_POLY

    def test_agrees_with_float_on_randoms(self):
        rng = random.Random(15)
        for _ in range(30):
            g = random_connected_graph(rng, rng.randint(2, 8))
            h = random_connected_graph(rng, rng.randint(2, 8))
            got = exact_compare_rho(g, h)
            rg, rh = perron(g).rho, perron(h).rho
            if rg < rh - 1e-8:
                assert got is Ordering.LESS
            elif rg > rh + 1e-8:
                assert got is Ordering.GREATER
            else:
                assert got in (Ordering.EQUAL_POLY, Ordering.EQUAL_RHO)

    def test_requires_connected(self):
        with pytest.raises(ValueError, match="connected"):
            exact_compare_rho(disjoint_union(complete(2), complete(2)), complete(3))

    def test_equal_rho_regular_orders(self):
        # circulants C_n(1, 2) are connected and 4-regular, so rho = 4 for every n
        def circulant(n):
            return from_edges(n, [(i, (i + s) % n) for i in range(n) for s in (1, 2)])
        for n, m in ((8, 11), (13, 24), (9, 10)):
            assert exact_compare_rho(circulant(n), circulant(m)) is Ordering.EQUAL_RHO

    def test_near_tie_one_edge_move(self):
        # the one-edge move of an extremal graph that comes closest to its radius
        g = extremal_graph(ExtremalParams(14, 3, 5))
        edges = list(g.edges())
        absent = [(i, j) for j in range(14) for i in range(j) if not g.has_edge(i, j)]
        rho = np.linalg.eigvalsh(g.adjacency_matrix())[-1]
        moves = []
        for drop in edges:
            for add in absent:
                h = from_edges(14, [e for e in edges if e != drop] + [add])
                if is_connected(h):
                    moves.append((rho - np.linalg.eigvalsh(h.adjacency_matrix())[-1], h))
        gap, h = min(moves, key=lambda m: abs(m[0]))
        assert 1e-9 < gap < 1e-2
        assert exact_compare_rho(g, h) is Ordering.GREATER
        assert exact_compare_rho(h, g) is Ordering.LESS
        assert exactroots.compare_largest_roots(int_charpoly(g).coeffs,
                                                int_charpoly(h).coeffs) == 1


def _assert_encloses_rho(g):
    """The screen's enclosure of rho(g) holds, checked exactly: the largest
    root of den * x - num is num / den, compared with that of int_charpoly."""
    a = g.adjacency_matrix()
    rho, vec = spectral._top_pair(a)
    enclosure = spectral._enclosure(a, vec)
    assert enclosure is not None
    p = int_charpoly(g).coeffs
    (lo_num, lo_den), (hi_num, hi_den) = enclosure
    assert exactroots.compare_largest_roots(p, (-lo_num, lo_den), seeds=(rho, lo_num / lo_den)) >= 0
    assert exactroots.compare_largest_roots(p, (-hi_num, hi_den), seeds=(rho, hi_num / hi_den)) <= 0


@pytest.fixture
def charpoly_calls(monkeypatch):
    """Counts the int_charpoly calls that exact_compare_rho makes."""
    calls = []
    real = spectral.int_charpoly

    def counting(g):
        calls.append(g)
        return real(g)

    monkeypatch.setattr(spectral, "int_charpoly", counting)
    return calls


class TestEnclosure:
    """The Collatz-Wielandt screen that exact_compare_rho runs first."""

    def test_contains_rho_on_atlas(self):
        checked = 0
        for h in nx.graph_atlas_g():
            if h.number_of_nodes() == 0 or not nx.is_connected(h):
                continue
            _assert_encloses_rho(from_edges(h.number_of_nodes(), list(h.edges())))
            checked += 1
        assert checked == 996  # every connected graph on 1-7 vertices

    def test_separated_pair_builds_no_charpoly(self, charpoly_calls):
        g = extremal_graph(ExtremalParams(14, 3, 5))
        h = from_edges(14, [e for e in g.edges() if e != max(g.edges())])
        assert sorted(g.degrees()) != sorted(h.degrees())
        assert exact_compare_rho(g, h) is Ordering.GREATER
        assert exact_compare_rho(h, g) is Ordering.LESS
        assert charpoly_calls == []

    def test_relabeled_pair_skips_the_screen(self, charpoly_calls, monkeypatch):
        monkeypatch.setattr(spectral, "_enclosure", None)  # calling it would raise
        g = extremal_graph(ExtremalParams(12, 2, 4))
        perm = random.Random(21).sample(range(12), 12)
        h = from_edges(12, [(perm[u], perm[v]) for u, v in g.edges()])
        assert exact_compare_rho(g, h) is Ordering.EQUAL_POLY
        assert charpoly_calls == [g, h]

    def test_equal_radii_fall_back(self, charpoly_calls, monkeypatch):
        # C4 and C5 both have rho = 2: the enclosures touch, so the charpolys decide
        screens = []
        real = spectral._enclosure
        monkeypatch.setattr(spectral, "_enclosure", lambda a, v: screens.append(a) or real(a, v))
        assert exact_compare_rho(cycle(4), cycle(5)) is Ordering.EQUAL_RHO
        assert len(screens) == 2
        assert len(charpoly_calls) == 2

    def test_entry_rounding_below_one_gives_none(self):
        a = complete(3).adjacency_matrix()
        assert spectral._enclosure(a, np.array([0.5, 0.5, 0.1])) is not None
        assert spectral._enclosure(a, np.array([0.7, 0.7, 2.0**-54])) is None
        assert spectral._enclosure(a, np.array([0.7, 0.7, 0.0])) is None
        assert spectral._enclosure(a, np.array([0.7, 0.7, -0.1])) is None


@st.composite
def connected_graphs(draw, max_n=12):
    """A random spanning tree (parent of i drawn from 0..i-1) plus random extra edges."""
    n = draw(st.integers(1, max_n))
    edges = {(draw(st.integers(0, i - 1)), i) for i in range(1, n)}
    slots = [(i, j) for j in range(n) for i in range(j)]
    extra = draw(st.lists(st.booleans(), min_size=len(slots), max_size=len(slots)))
    edges |= {e for e, keep in zip(slots, extra) if keep}
    return from_edges(n, edges)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(connected_graphs(), connected_graphs())
def test_exact_compare_agrees_with_unseeded_sturm(g, h):
    p, q = int_charpoly(g).coeffs, int_charpoly(h).coeffs
    got = exact_compare_rho(g, h)
    if p == q:
        assert got is Ordering.EQUAL_POLY
    else:
        want = {-1: Ordering.LESS, 0: Ordering.EQUAL_RHO, 1: Ordering.GREATER}
        assert got is want[exactroots.compare_largest_roots(p, q)]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(connected_graphs(max_n=16))
def test_enclosure_contains_rho(g):
    _assert_encloses_rho(g)
