"""Quotient matrices, the closed-form cubic, interlacing, lifting."""

import random

import numpy as np
import pytest

from conftest import random_connected_graph, random_graph
from specrad.exactroots import compare_largest_roots
from specrad.graphs import ExtremalParams, complete, extremal_graph, path
from specrad.quotient import (
    CubicCoeffs,
    Partition,
    canonical_three_blocks,
    check_interlacing,
    cubic_coefficients,
    is_equitable,
    largest_cubic_root,
    lift_block_vector,
    quotient_matrix,
    quotient_perron,
    quotient_spectrum,
    two_clique_quotient,
)
from specrad.spectral import full_spectrum, int_charpoly, perron
from test_spectral import _poly_mul, jacobi_eigenvalues

PAW_RHO = 2.170086486626034
RHO_723 = 4.518816693272298  # largest root of x^3-4x^2-5x+12 (sign change 4.5 / 4.52)


def charpoly3_oracle(q):
    """det(xI - Q) for an integer 3x3 matrix: direct minor expansion."""
    m = [[round(q[i][j]) for j in range(3)] for i in range(3)]
    tr = m[0][0] + m[1][1] + m[2][2]
    minors = (m[1][1] * m[2][2] - m[1][2] * m[2][1]
              + m[0][0] * m[2][2] - m[0][2] * m[2][0]
              + m[0][0] * m[1][1] - m[0][1] * m[1][0])
    det = (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
           - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
           + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))
    return (-tr, minors, -det)  # (c2, c1, c0)


def symmetric_form(qm):
    """D^{1/2} Q D^{-1/2}, D = diag(block sizes): symmetric, same spectrum as Q."""
    d = np.sqrt(np.array(qm.sizes, dtype=float))
    return qm.matrix * np.outer(d, 1.0 / d)


def random_partition(rng, n, m):
    assign = [rng.randrange(m) for _ in range(n)]
    for i in range(m):  # force every block nonempty
        assign[rng.randrange(n)] = i if n >= m else assign[0]
    blocks = [[v for v in range(n) if assign[v] == b] for b in range(m)]
    blocks = [b for b in blocks if b]
    return Partition(tuple(tuple(b) for b in blocks))


class TestPartition:
    def test_validate_rejects_overlap(self):
        with pytest.raises(ValueError, match="two blocks"):
            Partition(((0, 1), (1, 2))).validate(3)

    def test_validate_rejects_gap(self):
        with pytest.raises(ValueError, match="cover"):
            Partition(((0,), (2,))).validate(4)

    def test_validate_rejects_empty_block(self):
        with pytest.raises(ValueError, match="empty"):
            Partition(((0, 1), ())).validate(2)


class TestEquitable:
    def test_single_block_of_complete(self):
        assert is_equitable(complete(5), Partition((tuple(range(5)),)))

    def test_canonical_extremal_partition(self):
        for n in range(4, 10):
            for k in range(1, n - 1):
                for d in range(k, n - 1):
                    p = ExtremalParams(n, k, d)
                    g = extremal_graph(p)
                    assert is_equitable(g, canonical_three_blocks(p))

    def test_path_unbalanced_split(self):
        # P_3 split {end},{middle,end}: middle sees 2 across, end sees 1
        assert not is_equitable(path(3), Partition(((0,), (1, 2))))


class TestQuotientMatrix:
    def test_complete_single_block(self):
        qm = quotient_matrix(complete(6), Partition((tuple(range(6)),)))
        assert qm.matrix.shape == (1, 1) and qm.matrix[0, 0] == 5.0

    def test_canonical_723(self):
        p = ExtremalParams(7, 2, 3)
        qm = quotient_matrix(extremal_graph(p), canonical_three_blocks(p))
        assert np.array_equal(qm.matrix, [[1, 2, 3], [2, 1, 0], [2, 0, 2]])

    def test_closed_form_411(self):
        qm = two_clique_quotient(*ExtremalParams(4, 1, 1).block_sizes)
        assert np.array_equal(qm.matrix, [[0, 1, 2], [1, 0, 0], [1, 0, 1]])

    def test_closed_form_matches_counted_on_grid(self):
        for n in range(4, 11):
            for k in range(1, n - 1):
                for d in range(k, n - 1):
                    p = ExtremalParams(n, k, d)
                    counted = quotient_matrix(extremal_graph(p), canonical_three_blocks(p))
                    closed = two_clique_quotient(*p.block_sizes)
                    assert np.array_equal(counted.matrix, closed.matrix)
                    assert counted.edge_counts == closed.edge_counts

    def test_two_clique_form(self):
        qm = two_clique_quotient(2, 3, 4)
        assert np.array_equal(qm.matrix, [[1, 3, 4], [2, 2, 0], [2, 0, 3]])

    def test_edge_count_symmetry_random(self):
        rng = random.Random(31)
        for _ in range(50):
            n = rng.randint(3, 10)
            g = random_graph(rng, n)
            pt = random_partition(rng, n, rng.randint(1, min(4, n)))
            qm = quotient_matrix(g, pt)
            m = qm.m
            for i in range(m):
                for j in range(m):
                    if i != j:
                        assert (qm.sizes[i] * qm.matrix[i, j]
                                == pytest.approx(qm.sizes[j] * qm.matrix[j, i]))
                        assert qm.edge_counts[i][j] == qm.edge_counts[j][i]

    def test_row_sums_bounded_by_max_degree(self):
        rng = random.Random(32)
        for _ in range(30):
            g = random_graph(rng, 8)
            pt = random_partition(rng, 8, 3)
            qm = quotient_matrix(g, pt)
            assert np.max(qm.matrix.sum(axis=1)) <= max(g.degrees()) + 1e-12


class TestCubicCoefficients:
    def test_723_against_det_oracle(self):
        c = cubic_coefficients(ExtremalParams(7, 2, 3))
        assert (c.c2, c.c1, c.c0) == (-4, -5, 12)
        q = two_clique_quotient(*ExtremalParams(7, 2, 3).block_sizes).matrix
        assert charpoly3_oracle(q) == (-4, -5, 12)

    def test_411_against_det_oracle(self):
        c = cubic_coefficients(ExtremalParams(4, 1, 1))
        assert (c.c2, c.c1, c.c0) == (-1, -3, 1)
        q = two_clique_quotient(*ExtremalParams(4, 1, 1).block_sizes).matrix
        assert charpoly3_oracle(q) == (-1, -3, 1)

    def test_det_oracle_on_grid(self):
        for n in range(4, 26):
            for k in range(1, n - 1):
                for d in range(k, n - 1):
                    p = ExtremalParams(n, k, d)
                    c = cubic_coefficients(p)
                    got = charpoly3_oracle(two_clique_quotient(*p.block_sizes).matrix)
                    assert got == (c.c2, c.c1, c.c0)
                    assert c.c2 == 3 - n

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            cubic_coefficients(ExtremalParams(5, 4, 4))


class TestLargestCubicRoot:
    def test_723(self):
        c = CubicCoeffs(-4, -5, 12)
        # sign change bracketed by hand: p(4.5) = -0.375, p(4.52) = +0.023808
        assert c.evaluate(4.5) == pytest.approx(-0.375)
        assert c.evaluate(4.52) == pytest.approx(0.023808, abs=1e-9)
        assert largest_cubic_root(c) == pytest.approx(RHO_723, abs=1e-12)

    def test_411_matches_paw_rho(self):
        assert largest_cubic_root(CubicCoeffs(-1, -3, 1)) == pytest.approx(PAW_RHO, abs=1e-11)

    def test_complete_graph_factorization(self):
        # (x-(n-1))(x+1)^2: repeated root below, simple integer root on top
        for n in (3, 5, 10, 33):
            c = CubicCoeffs(3 - n, 3 - 2 * n, -(n - 1))
            assert largest_cubic_root(c) == pytest.approx(n - 1, abs=1e-12)

    def test_triple_root(self):
        # (x-2)^3 = x^3 - 6x^2 + 12x - 8
        assert largest_cubic_root(CubicCoeffs(-6, 12, -8)) == 2.0

    def test_double_root_on_top(self):
        # (x-3)^2 (x+1) = x^3 - 5x^2 + 3x + 9
        assert largest_cubic_root(CubicCoeffs(-5, 3, 9)) == 3.0

    def test_single_real_root(self):
        # x^3 + x + 1: discriminant negative
        got = largest_cubic_root(CubicCoeffs(0, 1, 1))
        assert got**3 + got + 1 == pytest.approx(0.0, abs=1e-10)

    def test_extremal_cubics_skip_sturm(self, sturm_calls, no_fraction):
        # every valid triple with n < 40: certified without the fallback
        # or a Fraction, and equal to the top eigenvalue of the
        # symmetrized quotient
        count = 0
        for n in range(4, 40):
            for k in range(1, n - 1):
                for d in range(k, n - 1):
                    p = ExtremalParams(n, k, d)
                    root = largest_cubic_root(cubic_coefficients(p))
                    sym = symmetric_form(two_clique_quotient(*p.block_sizes))
                    assert abs(root - np.linalg.eigvalsh(sym)[-1]) <= 1e-9, p
                    count += 1
        assert count == 9138
        assert not sturm_calls

    def test_random_vs_numpy(self):
        rng = random.Random(33)
        for _ in range(200):
            c = CubicCoeffs(rng.randint(-30, 30), rng.randint(-30, 30), rng.randint(-30, 30))
            roots = np.roots([1, c.c2, c.c1, c.c0])
            want = max(r.real for r in roots if abs(r.imag) < 1e-7)
            assert largest_cubic_root(c) == pytest.approx(want, abs=1e-7)


class TestEndToEnd:
    def test_cubic_equals_rho_small_grid(self):
        for n in range(4, 12):
            for k in range(1, n - 1):
                for d in range(k, n - 1):
                    p = ExtremalParams(n, k, d)
                    root = largest_cubic_root(cubic_coefficients(p))
                    rho = perron(extremal_graph(p)).rho
                    assert abs(root - rho) <= 1e-9

    def test_charpoly_is_cubic_times_power(self):
        # det(xI - A) = (x + 1)^(n-3) * cubic, exactly, for every valid triple
        for n in range(4, 16):
            for k in range(1, n - 1):
                for d in range(k, n - 1):
                    p = ExtremalParams(n, k, d)
                    want = cubic_coefficients(p).as_poly()
                    for _ in range(n - 3):
                        want = _poly_mul(want, (1, 1))
                    assert int_charpoly(extremal_graph(p)).coeffs == want, p

    def test_quotient_largest_eig_equals_rho(self):
        p = ExtremalParams(7, 2, 3)
        qs = quotient_spectrum(two_clique_quotient(*p.block_sizes))
        assert qs[-1] == pytest.approx(perron(extremal_graph(p)).rho, abs=1e-9)


class TestCliqueJoinGrid:
    def test_neighbours_follow_the_paper(self):
        # K_s + (K_a u K_{n-s-a}) with a <= (n-s)/2: rho rises with s and
        # falls with a.  Unseeded exact comparisons of the cubics, in both
        # argument orders, agree with the eigvalsh gap of the graphs
        pairs = 0
        for n in range(3, 17):
            grid = {}
            for s in range(1, n):
                for a in range(1, (n - s) // 2 + 1):
                    p = ExtremalParams(n, s, s + a - 1)
                    rho = np.linalg.eigvalsh(extremal_graph(p).adjacency_matrix())[-1]
                    grid[s, a] = cubic_coefficients(p).as_poly(), rho
            for (s, a), (p, rho) in grid.items():
                for nb, want in (((s + 1, a), -1), ((s, a + 1), 1)):
                    if nb not in grid:
                        continue
                    q, sigma = grid[nb]
                    assert abs(rho - sigma) > 1e-3 and np.sign(rho - sigma) == want
                    assert compare_largest_roots(p, q) == want, (n, s, a, nb)
                    assert compare_largest_roots(q, p) == -want, (n, s, a, nb)
                    pairs += 1
        assert pairs == 455


class TestClaimThreeStructure:
    def test_unbalanced_entries_ordered(self):
        # two-clique quotient with n1 < n2: Perron entry of the bigger
        # clique exceeds the smaller clique's, and rho(Q) > n2 - 1
        for n1 in range(1, 12):
            for n2 in range(n1 + 1, 13):
                for k in (1, n1):
                    rho, x = quotient_perron(two_clique_quotient(k, n1, n2))
                    assert rho > n2 - 1
                    assert x[2] > x[1]

    def test_eigen_equations_hold(self):
        # rows 2 and 3 of Q x = rho x: k x1 + (n_i - 1) x_i = rho x_i
        rho, x = quotient_perron(two_clique_quotient(2, 3, 5))
        assert 2 * x[0] + 2 * x[1] == pytest.approx(rho * x[1], abs=1e-9)
        assert 2 * x[0] + 4 * x[2] == pytest.approx(rho * x[2], abs=1e-9)


class TestLifting:
    def test_equitable_lift_is_eigenvector(self):
        rng = random.Random(34)
        for n in range(4, 10):
            for k in range(1, n - 1):
                for d in range(k, n - 1):
                    if rng.random() < 0.6:
                        continue
                    p = ExtremalParams(n, k, d)
                    g = extremal_graph(p)
                    qm = two_clique_quotient(*p.block_sizes)
                    rho, x = quotient_perron(qm)
                    y = lift_block_vector(canonical_three_blocks(p), x)
                    y /= np.linalg.norm(y)
                    a = g.adjacency_matrix()
                    assert np.max(np.abs(a @ y - rho * y)) <= 1e-9

    def test_rejects_overlap(self):
        with pytest.raises(ValueError, match="two blocks"):
            lift_block_vector(Partition(((0, 1), (1,))), [1.0, 2.0])

    def test_rejects_gap(self):
        with pytest.raises(ValueError, match="out of range"):
            lift_block_vector(Partition(((0,), (2,))), [1.0, 2.0])

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError, match=r"len\(x\) = 3 but the partition has 2 blocks"):
            lift_block_vector(Partition(((0,), (1, 2))), [1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match=r"len\(x\) = 1 but"):
            lift_block_vector(Partition(((0,), (1, 2))), [1.0])


class TestInterlacing:
    def test_equal_spectra(self):
        s = full_spectrum(complete(4).adjacency_matrix())
        assert check_interlacing(s, s)
        ref = jacobi_eigenvalues(complete(4).adjacency_matrix())
        assert check_interlacing(s, ref) and check_interlacing(ref, s)

    def test_random_partitions(self):
        rng = random.Random(35)
        for _ in range(50):
            n = rng.randint(3, 10)
            g = random_graph(rng, n)
            pt = random_partition(rng, n, rng.randint(1, min(4, n)))
            qm = quotient_matrix(g, pt)
            qs = quotient_spectrum(qm)
            a = g.adjacency_matrix()
            assert check_interlacing(qs, full_spectrum(a))
            # both sides from the reference solver, independent of LAPACK
            ref_q = jacobi_eigenvalues(symmetric_form(qm))
            assert check_interlacing(ref_q, jacobi_eigenvalues(a))

    def test_size_mismatch_rejected(self):
        a = full_spectrum(complete(3).adjacency_matrix())
        b = full_spectrum(complete(5).adjacency_matrix())
        with pytest.raises(ValueError):
            check_interlacing(b, a)

    def test_detects_violation(self):
        assert not check_interlacing((0.0, 99.0), (-1.0, 0.0, 1.0))
