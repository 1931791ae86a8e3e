"""Quotient matrices, the closed-form cubic, interlacing, lifting."""

import collections
import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

from conftest import path, random_graph
from specrad import exactroots, spectral
from specrad.exactroots import compare_largest_roots
from specrad.graphs import ExtremalParams, complete, extremal_graph
from specrad.quotient import (
    CubicCoeffs,
    Partition,
    canonical_three_blocks,
    cubic_coefficients,
    is_equitable,
    largest_cubic_root,
    lift_block_vector,
    quotient_matrix,
    quotient_perron,
    two_clique_quotient,
)
from specrad.spectral import _twin_quotient, int_charpoly, perron
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


def valid_triples(max_n):
    """ExtremalParams of every valid (n, k, delta) with n <= max_n."""
    return [ExtremalParams(n, k, d) for n in range(3, max_n + 1)
            for k in range(1, n - 1) for d in range(k, n - 1)]


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

    def test_validate_rejects_non_int_vertex(self):
        with pytest.raises(ValueError, match="out of range"):
            Partition(((0.5,), (1,))).validate(2)


class TestPartitionChecksOnce:
    @pytest.mark.parametrize("blocks, why", [
        (((0, 1), (1, 2)), "vertex 1 appears in two blocks"),
        (((0, 0),), "vertex 0 appears in two blocks"),
        (((0, 1), ()), "empty"),
        (((0.5,), (1,)), r"vertex 0\.5 out of range"),
        (((-1,), (0,)), r"vertex -1 out of range"),
        ((("0",),), "out of range"),
    ])
    def test_construction_rejects(self, blocks, why):
        with pytest.raises(ValueError, match=why):
            Partition(blocks)

    def test_validate_names_the_range_before_the_cover(self):
        p = Partition(((0,), (3,)))  # for n = 3, vertex 3 is out of range and 1, 2 are missing
        with pytest.raises(ValueError, match="vertex 3 out of range"):
            p.validate(3)
        with pytest.raises(ValueError, match="cover"):
            p.validate(4)
        q = Partition(((0, 2), (1, 3)))
        assert q.validate(4) is q

    @pytest.mark.parametrize("label", [2**64, 2**70], ids=["2^64", "2^70"])
    def test_huge_vertex_builds_no_mask(self, label):
        # a partition that validates has every vertex below its count of
        # vertices, so a larger one gets no bit: it is rejected with
        # ValueError, not MemoryError or OverflowError, in the usual order
        p = Partition(((0,), (label,)))
        assert p.cover == 1
        with pytest.raises(ValueError, match=f"vertex {label} out of range"):
            p.validate(2)
        with pytest.raises(ValueError, match="cover"):
            p.validate(label + 1)
        with pytest.raises(ValueError, match=f"vertex {label} appears in two blocks"):
            Partition(((0,), (label,), (label,)))

    def test_masks_agree_with_blocks(self):
        rng = random.Random(35)
        for _ in range(50):
            n = rng.randint(1, 12)
            p = random_partition(rng, n, rng.randint(1, n))
            assert p.masks == tuple(sum(1 << v for v in b) for b in p.blocks)
            assert p.cover == (1 << n) - 1
            assert p.validate(n) is p

    def test_equality_and_hash_ignore_the_masks(self):
        p = Partition(((0, 1), (2,)))
        q = Partition([[0, 1], [2]])
        object.__setattr__(q, "masks", ())
        object.__setattr__(q, "cover", 0)
        assert p == q and hash(p) == hash(q)
        assert p != Partition(((0,), (1, 2)))
        assert repr(p) == "Partition(blocks=((0, 1), (2,)))"


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

    def test_edge_count_symmetry_random(self, monkeypatch):
        # the matrix quotient_perron hands the eigensolver is symmetric
        solved, real = [], spectral._top_pair
        monkeypatch.setattr(spectral, "_top_pair", lambda a: solved.append(a) or real(a))
        rng = random.Random(31)
        for _ in range(50):
            n = rng.randint(3, 10)
            g = random_graph(rng, n)
            pt = random_partition(rng, n, rng.randint(1, min(4, n)))
            qm = quotient_matrix(g, pt)
            quotient_perron(qm)
            (sym,) = solved
            solved.clear()
            assert np.array_equal(sym, sym.T)  # bit for bit
            m = len(qm.sizes)
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
        with pytest.raises(ValueError, match="k >= 1"):
            canonical_three_blocks(ExtremalParams(5, 0, 2))
        for sizes in ((0, 2, 2), (1.5, 2, 2), (2, 2.0, 2)):
            with pytest.raises(ValueError, match="integers k, n1, n2 >= 1"):
                two_clique_quotient(*sizes)

    def test_non_integer_params_rejected(self):
        # a float n gave float "exact" coefficients (-4.5, -5.0, 14.5)
        for p in (ExtremalParams(7.5, 2, 3), ExtremalParams(7, 2, 3.0)):
            with pytest.raises(ValueError, match="must be integers"):
                cubic_coefficients(p)
            with pytest.raises(ValueError, match="must be integers"):
                canonical_three_blocks(p)


class TestLargestCubicRoot:
    def test_723(self):
        c = CubicCoeffs(-4, -5, 12)
        # sign change bracketed by hand: p(4.5) = -3/8, p(4.52) = +372/15625
        def p(x):
            return sum(a * x**i for i, a in enumerate(c.as_poly()))
        assert p(Fraction(9, 2)) == Fraction(-3, 8)
        assert p(Fraction(113, 25)) == Fraction(372, 15625)
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

    def test_extremal_cubics_skip_sturm(self, sturm_calls, no_fraction, no_np_roots,
                                        monkeypatch):
        # every valid triple with n < 40: seeded by Newton's iteration,
        # certified without the fallback or a Fraction, and equal to the
        # top eigenvalue of the symmetrized quotient.  The first rungs
        # certify all but one: Newton's float iterates on x^3 - 36x^2 +
        # 286x + 684 (n, k, delta = 39, 1, 19) stop about two 2^-43 steps
        # short of the root, so that bracket is 9 steps wide and halved
        halved, real = [], exactroots._halve
        monkeypatch.setattr(exactroots, "_halve", lambda br: halved.append(p) or real(br))
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
        assert set(halved) == {ExtremalParams(39, 1, 19)}

    def test_horner_evaluations_per_cubic(self, monkeypatch):
        # every valid triple with n < 40: the integer probe, the hi rung and
        # the lo rung, with no evaluation of p(hi) after the rung search;
        # an integer root is the probe alone, and (39, 1, 19) adds four
        # halvings (see test_extremal_cubics_skip_sturm)
        calls, real = [], exactroots._value
        monkeypatch.setattr(exactroots, "_value", lambda *a: calls.append(a) or real(*a))
        counts = collections.Counter()
        for n in range(4, 40):
            for k in range(1, n - 1):
                for d in range(k, n - 1):
                    largest_cubic_root(cubic_coefficients(ExtremalParams(n, k, d)))
                    counts[len(calls)] += 1
                    calls.clear()
        assert counts == {3: 9086, 1: 51, 7: 1}

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
        # det(xI - A) = (x + 1)^(n-3) * cubic, exactly, for every valid triple:
        # the twin identity on the classes S, A and B (see the next test)
        for n in range(4, 16):
            for k in range(1, n - 1):
                for d in range(k, n - 1):
                    p = ExtremalParams(n, k, d)
                    want = cubic_coefficients(p).as_poly()
                    for _ in range(n - 3):
                        want = _poly_mul(want, (1, 1))
                    assert int_charpoly(extremal_graph(p)).coeffs == want, p

    def test_twin_quotient_is_the_two_clique_quotient(self):
        # S, A and B are the twin classes, |A| = |B| = 1 included: the twin
        # quotient is two_clique_quotient in some class order, its charpoly
        # is the cubic, and the n - 3 other roots are -1
        for p in valid_triples(16):
            q, sizes = _twin_quotient(extremal_graph(p))
            k, a, b = p.block_sizes
            cubic = cubic_coefficients(p)
            want_sizes, want_q = (k, a, b), two_clique_quotient(k, a, b).matrix.tolist()
            assert charpoly3_oracle(q) == (cubic.c2, cubic.c1, cubic.c0), p
            assert any(tuple(sizes[i] for i in order) == want_sizes
                       and q[np.ix_(order, order)].tolist() == want_q
                       for order in itertools.permutations(range(len(sizes)))), p

    def test_every_clique_join_makes_two_power_matmuls(self, monkeypatch):
        # Q, Q^2 and Q^3 for the three classes: two products, whatever n
        calls = []
        real = np.matmul

        def counting(*args, **kwargs):
            calls.append(args[0].shape)
            return real(*args, **kwargs)

        monkeypatch.setattr(np, "matmul", counting)
        for p in valid_triples(16):
            calls.clear()
            int_charpoly(extremal_graph(p))
            assert calls == [(3, 3), (3, 3)], p

    @pytest.mark.parametrize("n, k, d", [(64, 5, 20), (64, 62, 62), (100, 7, 40), (100, 1, 48)])
    def test_large_clique_joins_past_order_32(self, n, k, d):
        # the cap is on the quotient's order, not on n
        p = ExtremalParams(n, k, d)
        want = cubic_coefficients(p).as_poly()
        for _ in range(n - 3):
            want = _poly_mul(want, (1, 1))
        assert int_charpoly(extremal_graph(p)).coeffs == want

    def test_quotient_largest_eig_equals_rho(self):
        p = ExtremalParams(7, 2, 3)
        rho, _ = quotient_perron(two_clique_quotient(*p.block_sizes))
        assert rho == pytest.approx(perron(extremal_graph(p)).rho, abs=1e-9)


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
    def test_random_partitions(self):
        # lambda_i(A) >= lambda_i(Q) >= lambda_{i+n-m}(A), both sides from
        # the reference solver, descending
        rng = random.Random(35)
        for _ in range(50):
            n = rng.randint(3, 10)
            g = random_graph(rng, n)
            pt = random_partition(rng, n, rng.randint(1, min(4, n)))
            qs = jacobi_eigenvalues(symmetric_form(quotient_matrix(g, pt)))[::-1]
            fs = jacobi_eigenvalues(g.adjacency_matrix())[::-1]
            m = len(qs)
            for i in range(m):
                assert fs[i] + 1e-9 >= qs[i] >= fs[i + n - m] - 1e-9
