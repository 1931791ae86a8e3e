"""Exact root machinery: signs, Sturm counts, Descartes certificates,
isolation, comparison.

Oracle values come from hand factorizations; counts are cross-checked
against numpy roots on random integer polynomials, and gcds, square-free
parts, Sturm counts and unseeded isolation against sympy.  Seeded
comparisons, and the self-seeded largest_real_root, must agree with the
unseeded Sturm path, and wrong seeds must reach it.
"""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import random_graph
from specrad import exactroots
from specrad.exactroots import (
    cauchy_bound,
    compare_largest_roots,
    count_roots_in,
    derivative,
    isolate_largest_root,
    largest_real_root,
    normalize,
    poly_gcd,
    shift_variations,
    sign_at,
    square_free_part,
    sturm_chain,
)
from specrad.graphs import complete, is_connected
from specrad.spectral import int_charpoly
from test_spectral import _poly_mul


def test_sign_at_basics():
    p = (-2, 0, 1)  # x^2 - 2
    assert sign_at(p, 1) == -1
    assert sign_at(p, 2) == 1
    assert sign_at(p, Fraction(3, 2)) == 1
    assert sign_at((0, 1), 0) == 0


def test_derivative_and_normalize():
    assert derivative((5, 3, 2)) == (3, 4)
    assert normalize((1, 0, 0)) == (1,)
    assert normalize((0, 0)) == ()


def test_cauchy_bound_contains_roots():
    rng = random.Random(3)
    for _ in range(100):
        deg = rng.randint(1, 6)
        p = tuple(rng.randint(-9, 9) for _ in range(deg)) + (rng.randint(1, 9),)
        b = cauchy_bound(p)
        roots = np.roots(list(reversed(p)))
        assert all(abs(r) < b for r in roots)


def test_sturm_counts_known_cubic():
    # x(x-1)(x-2) = x^3 - 3x^2 + 2x
    p = (0, 2, -3, 1)
    ch = sturm_chain(p)
    assert count_roots_in(ch, -1, 3) == 3
    assert count_roots_in(ch, 0, 2) == 2          # (0, 2] excludes the root at 0
    assert count_roots_in(ch, -1, 0) == 1         # (-1, 0] includes it
    b = cauchy_bound(p)                           # every real root in (-b, b)
    assert count_roots_in(ch, Fraction(1, 2), b) == 2
    assert count_roots_in(ch, -b, b) == 3


def test_count_roots_in_rejects_reversed_interval():
    ch = sturm_chain((-2, 0, 1))  # x^2 - 2
    with pytest.raises(ValueError):
        count_roots_in(ch, 2, -2)
    assert count_roots_in(ch, -2, 2) == 2
    assert count_roots_in(ch, 1, 1) == count_roots_in(ch, Fraction(3, 2), Fraction(3, 2)) == 0


def test_sturm_counts_random_vs_numpy():
    # a double real root perturbs into a conjugate pair with imag ~ sqrt(eps),
    # so the oracle needs a generous imaginary cutoff and clustering radius
    rng = random.Random(5)
    for _ in range(120):
        deg = rng.randint(2, 6)
        p = tuple(rng.randint(-6, 6) for _ in range(deg)) + (rng.randint(1, 5),)
        sf = square_free_part(p)
        ch = sturm_chain(sf)
        b = cauchy_bound(sf)
        got = count_roots_in(ch, -b, b)
        roots = np.roots(list(reversed(p)))
        real = sorted(r.real for r in roots if abs(r.imag) < 1e-4)
        distinct = 0
        last = None
        for r in real:
            if last is None or r - last > 1e-4:
                distinct += 1
            last = r
        assert got == distinct


def test_shift_variations_hand_cases():
    p = (-6, 11, -6, 1)  # (x-1)(x-2)(x-3)
    assert shift_variations(p, 0) == 3                  # p itself: - + - +
    assert shift_variations(p, 1) == 2                  # t(t-1)(t-2); the root at 1 is not above
    assert shift_variations(p, Fraction(5, 2)) == 1     # (t+3/2)(t+1/2)(t-1/2)
    assert shift_variations(p, 3) == 0                  # t(t+1)(t+2)


def test_shift_variations_bound_keeps_parity():
    # x^2 - x + 1 has no real root: V(0) = 2 over-counts by an even number
    assert shift_variations((1, -1, 1), 0) == 2
    rng = random.Random(4)
    for _ in range(100):
        deg = rng.randint(1, 6)
        p = tuple(rng.randint(-9, 9) for _ in range(deg)) + (rng.randint(1, 9),)
        r = Fraction(rng.randint(-40, 40), 8)
        above = sum(1 for z in np.roots(list(reversed(p)))
                    if abs(z.imag) < 1e-7 and z.real > float(r) + 1e-7)
        v = shift_variations(p, r)
        if all(abs(z.real - float(r)) > 1e-6 for z in np.roots(list(reversed(p)))):
            assert v >= above and (v - above) % 2 == 0


def test_seeded_isolation_certifies_without_sturm(sturm_calls):
    paw = (1, -2, -4, 0, 1)  # x^4 - 4x^2 - 2x + 1, largest root 2.170086486626034
    loc = isolate_largest_root(paw, seed=2.170086486626034)
    assert loc[0] == "interval" and not sturm_calls
    _, lo, hi, _ = loc
    assert lo < Fraction(2.170086486626034) < hi and hi - lo <= Fraction(1, 1 << 30)
    # (x-3)(x+1): p(3) = 0 and V(3) = 0 prove the integer root exactly
    assert isolate_largest_root((-3, -2, 1), seed=3.0) == ("exact", 3)
    assert not sturm_calls


def test_seed_off_by_several_steps_certifies(sturm_calls):
    # seeds 24 and 2^22 steps of the 2^-43 grid away from sqrt(2) and sqrt(3):
    # the bracket widens past one step and still certifies, with no Sturm chain
    r2, r3 = 2**0.5, 3**0.5
    for seed in (r2 + 3 * 2.0**-40, r2 - 3 * 2.0**-40, r2 + 2.0**-21, r2 - 2.0**-21):
        _, lo, hi, _ = isolate_largest_root((-2, 0, 1), seed=seed)
        assert lo * lo < 2 < hi * hi
    assert compare_largest_roots((-2, 0, 1), (-3, 0, 1),
                                 seeds=(r2 + 3 * 2.0**-40, r3 - 2.0**-21)) == -1
    assert not sturm_calls


class _ShiftSpy:
    """Wraps exactroots._shift_variations for a with-block and records the
    grid denominator of each count: 1 for the integer probe, 2^SEED_BITS
    for the seeded certificate."""

    def __enter__(self):
        self.dens, self.real = [], exactroots._shift_variations

        def spy(p, num, den):
            self.dens.append(den)
            return self.real(p, num, den)

        exactroots._shift_variations = spy
        return self

    def __exit__(self, *exc):
        exactroots._shift_variations = self.real

    @property
    def grid_counts(self):
        return sum(den == 1 << exactroots.SEED_BITS for den in self.dens)


@pytest.mark.parametrize("steps", [8, 32, 512])
def test_seed_off_by_a_rung_certifies_with_one_count(sturm_calls, steps):
    # a seed `steps` grid steps above or below sqrt(2) misses every rung
    # before `steps`: Horner finds hi and lo, and one count V(lo) = 1 proves
    # the bracket.  The rung `steps` away lands just short of the root on
    # one side, so that side takes the next rung
    r2, step = 2**0.5, 2.0**-exactroots.SEED_BITS
    reach = exactroots.SEED_REACH
    for seed in (r2 + steps * step, r2 - steps * step):
        with _ShiftSpy() as spy:
            lo, hi, e, f = exactroots._isolate((-2, 0, 1), seed)
        assert spy.dens == [1 << exactroots.SEED_BITS] and f == (-2, 0, 1)
        assert e == exactroots.SEED_BITS and 0 < hi - lo <= 1 + reach[reach.index(steps) + 1]
        assert lo * lo < 2 << 2 * e < hi * hi
    assert not sturm_calls


def test_one_count_first_rungs_and_no_halving(sturm_calls, monkeypatch):
    # a seed within one step: the first rungs give a bracket 2^-42 wide,
    # which largest_real_root reads off with no halving
    monkeypatch.setattr(exactroots, "_halve", None)
    r2 = 2**0.5
    with _ShiftSpy() as spy:
        lo, hi, e, _ = exactroots._isolate((-2, 0, 1), r2)
        assert largest_real_root((-2, 0, 1)) == pytest.approx(r2, abs=2.0**-43)
    assert (hi - lo, e) == (2, exactroots.SEED_BITS)
    assert spy.grid_counts == 2 and len(spy.dens) == 2
    assert not sturm_calls


def test_negated_polynomial_same_root(sturm_calls):
    # -p has p's roots: the rung signs read p(x) * lead, whatever lead's sign
    for p in ((-2, 0, 1), (1, -3, -1, 1), (684, 286, -36, 1), (-6, 11, -6, 1), (4, 0, -3, 1)):
        neg = tuple(-c for c in p)
        seed = max(z.real for z in np.roots(p[::-1]) if abs(z.imag) < 1e-9)
        assert largest_real_root(neg) == largest_real_root(p)
        assert isolate_largest_root(neg, seed)[:3] == isolate_largest_root(p, seed)[:3]
        assert compare_largest_roots(p, neg, seeds=(seed, seed)) == 0
    assert not sturm_calls


def test_cluster_above_lo_goes_to_sturm(sturm_calls):
    # roots 3/2, 3/2 + 2^-51 and 3/2 + 2^-50, all inside the first rung:
    # p(lo) lead < 0 picks lo, but V(lo) = 3 > 1, so the seed gives no
    # bracket and Sturm isolates the top root 3/2 + 2^-50, a grid point
    # that its bisection reaches exactly
    p = _poly_mul(_poly_mul((-3, 2), (-(3 << 50) - 1, 1 << 51)), (-(3 << 50) - 2, 1 << 51))
    top = Fraction(3, 2) + Fraction(1, 1 << 50)
    with _ShiftSpy() as spy:
        assert exactroots._seeded_bracket(p, 1.5) is None
    assert spy.grid_counts == 1
    assert shift_variations(p, Fraction(3, 2) - Fraction(1, 1 << 43)) == 3
    assert isolate_largest_root(p, seed=1.5) == ("exact", top)
    assert sturm_calls
    assert largest_real_root(p) == pytest.approx(float(top), abs=2.0**-43)


def test_seeded_empty_and_constant_raise(sturm_calls):
    # no rung certifies a polynomial with no root, and () has no lead
    for p in ((), (0,), (5,), (-3,)):
        with pytest.raises(ValueError):
            isolate_largest_root(p, seed=1.0)
        with pytest.raises(ValueError):
            largest_real_root(p)
        with pytest.raises(ValueError):
            compare_largest_roots(p, (-2, 0, 1), seeds=(1.0, 1.4))


def _fraction_variations(p, r):
    """V(r) from the coefficients of p(r + t) expanded in Fractions."""
    coeffs = [Fraction(0)] * len(p)
    for i, c in enumerate(p):
        for j in range(i + 1):
            coeffs[j] += c * math.comb(i, j) * Fraction(r) ** (i - j)
    signs = [c > 0 for c in coeffs if c]
    return sum(a != b for a, b in zip(signs, signs[1:]))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(st.integers(-50, 50), max_size=8), st.integers(-200, 200),
       st.integers(0, 12), st.integers(1, 9))
def test_in_place_shift_matches_fraction_expansion(p, num, bits, odd):
    # dyadic grid points and other denominators; trailing zeros normalized
    p = normalize(p)
    den = odd << bits
    assert exactroots._shift_variations(p, num, den) == _fraction_variations(p, Fraction(num, den))
    assert shift_variations(p, Fraction(num, den)) == _fraction_variations(p, Fraction(num, den))


def _grid_midpoint(br):
    lo, hi, e, _ = br
    return Fraction(lo + hi, 2 << e)


def _assert_one_count_agrees_with_sturm(p, seed):
    """The seeded bracket, when the seed certifies, costs one count on the
    grid (the integer probe counts only where p(round(seed)) = 0) and lands
    within 2^-42 of the Sturm route."""
    p = normalize(p)
    with _ShiftSpy() as spy:
        seeded = exactroots._seeded_bracket(p, seed)
    if seeded is not None:
        probe = exactroots._value(p, round(seed), 1) == 0
        assert spy.grid_counts == (seeded[0] < seeded[1])
        assert len(spy.dens) == spy.grid_counts + probe
        seeded = exactroots._refine(exactroots._isolate(p, seed), 42)
        sturm = exactroots._refine(exactroots._isolate(p, None), 42)
        assert abs(_grid_midpoint(seeded) - _grid_midpoint(sturm)) <= Fraction(1, 1 << 42)
    return seeded is not None


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(st.tuples(st.integers(1, 4), st.integers(-12, 12)), min_size=1, max_size=6))
def test_linear_products_one_count_agrees_with_sturm(factors):
    p = (1,)
    for a, b in factors:
        p = _poly_mul(p, (-b, a))
    seed = exactroots._newton_seed(normalize(p))
    top = max(Fraction(b, a) for a, b in factors)
    certified = _assert_one_count_agrees_with_sturm(p, seed)
    # a simple top root always certifies from Newton's seed
    if sum(Fraction(b, a) == top for a, b in factors) == 1:
        assert certified


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(2, 14), st.integers(0, 2**32 - 1), st.sampled_from([0.3, 0.5, 0.8]))
def test_charpoly_one_count_agrees_with_sturm(n, seed, density):
    g = random_graph(random.Random(seed), n, density)
    p = int_charpoly(g).coeffs
    rho = float(np.linalg.eigvalsh(g.adjacency_matrix())[-1])
    for s in (rho, exactroots._newton_seed(normalize(p))):
        certified = _assert_one_count_agrees_with_sturm(p, s)
        # a connected graph's radius is a simple root: both seeds certify
        assert certified or not is_connected(g)


@pytest.mark.parametrize("seed", [3.170086486626034, 0.311107817465982, -7.5,
                                  float("nan"), 1e300])
def test_wrong_seed_reaches_fallback(sturm_calls, seed):
    # seeds: rho + 1, the second eigenvalue, far below every root, not a
    # number, off the dyadic grid's float range
    paw = (1, -2, -4, 0, 1)
    loc = isolate_largest_root(paw, seed=seed)
    assert sturm_calls
    _, lo, hi, _ = loc
    assert lo < Fraction(2.170086486626034) < hi


def test_integer_seed_beyond_float_range_reaches_fallback(sturm_calls):
    # 10**400 fits no float, so it gives no bracket and Sturm takes over
    loc = isolate_largest_root((-2, 0, 1), seed=10**400)
    assert sturm_calls
    assert loc == isolate_largest_root((-2, 0, 1))
    assert compare_largest_roots((-2, 0, 1), (-3, 0, 1), seeds=(10**400, None)) == -1
    assert compare_largest_roots((-3, 0, 1), (-2, 0, 1), seeds=(None, 10**400)) == 1


def test_double_top_root_proved_or_reaches_fallback(sturm_calls):
    # (x-2)^2 (x+1): V just below 2 is 2, so no bracket certifies, but
    # p(2) = 0 and V(2) = 0 prove the root 2 exactly, with no Sturm chain
    assert isolate_largest_root((4, 0, -3, 1), seed=2.0) == ("exact", 2)
    assert not sturm_calls
    # (x^2 - 2)^2: a double irrational top root is left to Sturm
    _, lo, hi, _ = isolate_largest_root((4, 0, -4, 0, 1), seed=2**0.5)
    assert sturm_calls and lo * lo < 2 < hi * hi


def test_square_free_part_collapses_multiplicity():
    # (x-1)^2 (x+2) = x^3 - 3x + 2
    p = (2, -3, 0, 1)
    sf = square_free_part(p)
    # must vanish at 1 and -2 and have degree 2
    assert sign_at(sf, 1) == 0 and sign_at(sf, -2) == 0
    assert len(sf) == 3


def test_poly_gcd():
    # gcd((x-2)(x+1), (x-2)(x-5)) ~ (x-2)
    p = (-2, -1, 1)
    q = (10, -7, 1)
    g = poly_gcd(p, q)
    assert len(g) == 2 and sign_at(g, 2) == 0


def test_isolate_exact_integer_root():
    # (x-3)(x+1) largest root 3; bisection midpoints are dyadic so the
    # exact hit is plausible but not guaranteed -- accept either form
    p = (-3, -2, 1)
    loc = isolate_largest_root(p)
    if loc[0] == "exact":
        assert loc[1] == 3
    else:
        _, lo, hi, _ = loc
        assert lo < 3 <= hi


def test_largest_real_root_values():
    assert largest_real_root((-4, 0, 1)) == pytest.approx(2.0, abs=1e-12)
    # x^3 - x^2 - 3x + 1: largest root 2.170086486626034 (bisected by hand)
    assert largest_real_root((1, -3, -1, 1)) == pytest.approx(2.170086486626034, abs=1e-11)
    # golden ratio: x^2 - x - 1
    assert largest_real_root((-1, -1, 1)) == pytest.approx((1 + 5**0.5) / 2, abs=1e-12)


def test_largest_real_root_double_root_on_top():
    # (x-1)^2 (x+2): largest root 1 with multiplicity 2
    assert largest_real_root((2, -3, 0, 1)) == pytest.approx(1.0, abs=1e-10)


def test_largest_real_root_beyond_float_range(sturm_calls):
    # numpy cannot take these coefficients as floats; Sturm isolates unseeded
    assert largest_real_root((-2 * 10**400, 10**400)) == pytest.approx(2.0, abs=1e-12)
    # (x - 3)(x^2 + 10^400)
    assert largest_real_root((-3 * 10**400, 10**400, -3, 1)) == pytest.approx(3.0, abs=1e-12)
    # x - 10^308 fits a float, but Fujiwara's bound 2e308 does not: no seed
    assert largest_real_root((-(10**308), 1)) == 1e308
    # x - 10^400: the root is certified but fits no float
    with pytest.raises(OverflowError):
        largest_real_root((-(10**400), 1))
    assert len(sturm_calls) == 4


def _unseeded_root(p):
    """The Sturm-only value largest_real_root must return within 1e-12."""
    loc = _bisect(isolate_largest_root(p), Fraction(1e-12) / 4)
    return float(loc[1]) if loc[0] == "exact" else float((loc[1] + loc[2]) / 2)


@pytest.mark.parametrize("scale", [1, 10, 1000, 10**6])
def test_newton_seed_misses_below_complex_pair(sturm_calls, no_np_roots, scale):
    # x ((x - 10c)^2 + c^2): Newton runs down onto the complex pair at
    # 10c +- ci, stalls where p' vanishes, and no bracket certifies the
    # real root 0 under it; (x + c)((x - 3c)^2 + c^2) is the same with a
    # negative real root
    for p in ((0, 101 * scale**2, -20 * scale, 1),
              _poly_mul((scale, 1), (10 * scale**2, -6 * scale, 1))):
        assert abs(largest_real_root(p) - _unseeded_root(p)) <= 1e-12
    assert sturm_calls


def test_newton_seed_double_irrational_top_root(sturm_calls, no_np_roots):
    # (x^2 - 2)^2: Newton converges to sqrt(2), but a double root has no
    # certifying bracket and is not an integer
    p = (4, 0, -4, 0, 1)
    assert abs(largest_real_root(p) - _unseeded_root(p)) <= 1e-12
    assert largest_real_root(p) == pytest.approx(2**0.5, abs=1e-12)
    assert sturm_calls


def test_newton_seed_degree_24_charpolys(sturm_calls, no_np_roots):
    # degree 24, Newton started at Fujiwara's bound far above the radius:
    # the seed still certifies, with no Sturm chain
    for g in (complete(24), random_graph(random.Random(24), 24, 0.5)):
        root = largest_real_root(int_charpoly(g).coeffs)
        assert root == pytest.approx(np.linalg.eigvalsh(g.adjacency_matrix())[-1], abs=1e-9)
    assert not sturm_calls


@pytest.mark.parametrize("p", [(0.02, -0.3, 1.0), (Fraction(-1, 3), 1), (-2, 0, 1.0)])
def test_non_integer_coefficients_rejected(p):
    # floats and fractions would otherwise be "certified" in float arithmetic
    for f in (normalize, largest_real_root, isolate_largest_root):
        with pytest.raises(TypeError):
            f(p)
    with pytest.raises(TypeError):
        compare_largest_roots(p, (-2, 0, 1))


def test_numpy_integer_coefficients_become_ints():
    # a 6-vertex charpoly: int64 coefficients overflowed in the shifted
    # Horner passes of shift_variations
    p = (0, 0, 6, 0, -6, 0, 1)
    q = tuple(np.array(p, dtype=np.int64))
    assert normalize(q) == p and all(type(c) is int for c in normalize(q))
    assert largest_real_root(q) == largest_real_root(p)
    assert isolate_largest_root(q) == isolate_largest_root(p)
    assert compare_largest_roots(q, p) == 0
    assert compare_largest_roots(q, tuple(np.array((-5, 0, 1), dtype=np.int32))) == -1


def test_no_real_root_raises():
    with pytest.raises(ValueError):
        isolate_largest_root((1, 0, 1))  # x^2 + 1
    with pytest.raises(ValueError):
        largest_real_root((1, 0, 1))
    with pytest.raises(ValueError):
        largest_real_root((5,))
    # the seeded path: no bracket certifies, and the fallback finds no root
    with pytest.raises(ValueError):
        isolate_largest_root((), seed=1.0)
    with pytest.raises(ValueError):
        isolate_largest_root((0, 0), seed=2.0)
    with pytest.raises(ValueError):
        compare_largest_roots((), (-2, 0, 1), seeds=(1.0, 1.4))


@st.composite
def real_rooted_factored(draw):
    """Degree 1-6: linear factors (a x - b), one of them repeated up to three
    times, times monic quadratics x^2 + b x + c that may be complex pairs."""
    lin = draw(st.lists(st.tuples(st.integers(1, 3), st.integers(-6, 6)), min_size=1, max_size=4))
    lin += [lin[0]] * draw(st.integers(0, min(2, 6 - len(lin))))
    quad = draw(st.lists(st.tuples(st.integers(-6, 6), st.integers(-6, 9)),
                         max_size=(6 - len(lin)) // 2))
    p = (1,)
    for a, b in lin:
        p = _poly_mul(p, (-b, a))
    for b, c in quad:
        p = _poly_mul(p, (c, b, 1))
    return p


@settings(max_examples=200, deadline=None, derandomize=True)
@given(real_rooted_factored())
# an integer root just below the largest, nearest to the seed:
# (x-2)(3x-7) and (x-2)(2x-5), where round(2.5) = 2; and a double root
# under the top with a complex pair: (x-3)^2 (2x-7) (x^2-6x+10)
@example((14, -13, 3))
@example((10, -9, 2))
@example((-630, 978, -613, 194, -31, 2))
def test_self_seeded_root_agrees_with_unseeded(p):
    assert abs(largest_real_root(p) - _unseeded_root(p)) <= 1e-12


def _bisect(loc, width):
    """Sign bisection of a public isolating interval in Fractions, down to
    `width`: the reference for the engine's integer refinement."""
    while loc[0] == "interval" and loc[2] - loc[1] > width:
        _, lo, hi, f = loc
        mid = (lo + hi) / 2
        side = sign_at(f, mid) * (1 if f[-1] > 0 else -1)
        loc = (("exact", mid) if side == 0 else
               ("interval", lo, mid, f) if side > 0 else ("interval", mid, hi, f))
    return loc


@st.composite
def factored(draw):
    """Products of integer factors of degree 1-2, each raised to a power
    up to 3, times a constant of either sign: repeated factors, complex
    pairs and negative leading coefficients all occur."""
    factors = draw(st.lists(st.tuples(st.lists(st.integers(-5, 5), min_size=1, max_size=2),
                                      st.integers(-3, 3).filter(bool), st.integers(1, 3)),
                            min_size=1, max_size=3))
    p = (draw(st.sampled_from([-2, -1, 1, 3])),)
    for low, lead, power in factors:
        for _ in range(power):
            p = _poly_mul(p, tuple(low) + (lead,))
    return p


def _sympy_poly(p):
    return sympy.Poly(p[::-1], sympy.Symbol("x"), domain="ZZ")


def _rational(x):
    return sympy.Rational(x.numerator, x.denominator)


class TestAgainstSympy:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(factored(), factored(), factored())
    def test_poly_gcd(self, common, a, b):
        p, q = _poly_mul(common, a), _poly_mul(common, b)
        want = sympy.gcd(_sympy_poly(p), _sympy_poly(q)).primitive()[1]
        assert _sympy_poly(poly_gcd(p, q)) in (want, -want)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(factored())
    def test_square_free_part(self, p):
        want = sympy.sqf_part(_sympy_poly(p))
        assert _sympy_poly(square_free_part(p)) in (want, -want)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(factored())
    def test_sturm_counts(self, p):
        sf = square_free_part(p)
        b = cauchy_bound(sf)
        assert count_roots_in(sturm_chain(sf), -b, b) == _sympy_poly(p).count_roots()

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(factored())
    def test_unseeded_isolation(self, p):
        roots = _sympy_poly(p).real_roots()
        if not roots:
            with pytest.raises(ValueError):
                isolate_largest_root(p)
            return
        top = max(roots)
        loc = isolate_largest_root(p)
        if loc[0] == "exact":
            assert _rational(loc[1]) == top
        else:
            _, lo, hi, f = loc
            assert _rational(lo) < top < _rational(hi) and hi - lo <= Fraction(1, 1 << 30)
            assert sign_at(f, lo) * sign_at(f, hi) < 0


class TestCompare:
    def test_separated(self):
        p = (-4, 0, 1)   # roots +-2
        q = (-3, 0, 1)   # roots +-sqrt(3)
        assert compare_largest_roots(p, q) == 1
        assert compare_largest_roots(q, p) == -1

    def test_equal_by_shared_factor(self):
        # C_4: x^4-4x^2 = x^2(x-2)(x+2); C_5: (x-2)(x^2+x-1)^2 -- equal largest roots
        c4 = (0, 0, -4, 0, 1)
        c5 = (-2, 5, 0, -5, 0, 1)
        assert compare_largest_roots(c4, c5) == 0

    def test_identical(self):
        p = (1, -3, -1, 1)
        assert compare_largest_roots(p, p) == 0

    def test_close_but_distinct(self):
        # largest roots sqrt(2) vs 181/128 = 1.4140625 (gap ~ 7e-5)
        assert compare_largest_roots((-2, 0, 1), (-181, 128)) == 1

    def test_rational_vs_irrational_tie_region(self):
        # root 2 exactly vs root sqrt(4.000001...): x^2 - 4000001/1000000
        p = (-2, 1)
        q = (-4000001, 0, 1000000)
        assert compare_largest_roots(p, q) == -1
        assert compare_largest_roots(q, p) == 1

    def test_wrong_seeds_same_answer(self, sturm_calls):
        paw = (1, -2, -4, 0, 1)          # rho 2.1700..., second eigenvalue 0.3111...
        c4 = (0, 0, -4, 0, 1)            # rho 2
        c5 = (-2, 5, 0, -5, 0, 1)        # rho 2
        assert compare_largest_roots(paw, c4, seeds=(3.170086486626034, 0.0)) == 1
        assert compare_largest_roots(c4, c5, seeds=(3.0, 0.618033988749895)) == 0
        assert sturm_calls
        assert compare_largest_roots(paw, c4) == 1

    def test_good_seeds_skip_sturm_and_gcd(self, sturm_calls, monkeypatch, no_fraction):
        monkeypatch.setattr(exactroots, "poly_gcd", None)  # integer ties need no gcd
        c4 = (0, 0, -4, 0, 1)
        c5 = (-2, 5, 0, -5, 0, 1)
        assert compare_largest_roots(c4, c5, seeds=(2.0, 2.0000000000000004)) == 0
        assert compare_largest_roots(c4, c5, seeds=(1.9999999999999998, 2.0)) == 0
        assert compare_largest_roots((-2, 0, 1), (-181, 128), seeds=(1.4142135623730951, 1.4140625)) == 1
        assert not sturm_calls

    def test_irrational_tie_takes_gcd(self, sturm_calls, monkeypatch, no_fraction):
        gcds = []
        real = exactroots.poly_gcd
        monkeypatch.setattr(exactroots, "poly_gcd", lambda a, b: gcds.append(1) or real(a, b))
        p = (-6, -2, 3, 1)     # (x^2 - 2)(x + 3)
        q = (2, -2, -1, 1)     # (x^2 - 2)(x - 1)
        r2 = 1.4142135623730951
        assert compare_largest_roots(p, q, seeds=(r2, r2)) == 0
        assert gcds and not sturm_calls
        assert compare_largest_roots(p, (-3, 0, 1), seeds=(r2, 1.7320508075688772)) == -1

    def test_double_integer_top_roots_tie_without_gcd(self, sturm_calls, monkeypatch, no_fraction):
        # (x-2)^2 (x+1) against (x-2)^2 (x+3): seeded, both roots are
        # proved at isolation, with no square-free part and no gcd
        monkeypatch.setattr(exactroots, "poly_gcd", None)
        p, q = (4, 0, -3, 1), (12, -8, -1, 1)
        assert compare_largest_roots(p, q, seeds=(2.0, 2.0)) == 0
        assert not sturm_calls

    @pytest.mark.parametrize("seeds", [(3.0, 3.0), (None, None)])
    def test_roots_2_to_the_minus_600_apart(self, seeds):
        # roots 3 + 2^-600 and 3 + 2^-599: some 600 halvings separate them
        big = 1 << 600
        p, q = (-(3 * big + 1), big), (-(3 * big + 2), big)
        assert compare_largest_roots(p, q, seeds=seeds) == -1
        assert compare_largest_roots(q, p, seeds=seeds) == 1

    def test_random_vs_numpy(self):
        rng = random.Random(9)
        for _ in range(60):
            deg1 = rng.randint(1, 5)
            deg2 = rng.randint(1, 5)
            p = tuple(rng.randint(-5, 5) for _ in range(deg1)) + (1,)
            q = tuple(rng.randint(-5, 5) for _ in range(deg2)) + (1,)
            try:
                isolate_largest_root(p)
                isolate_largest_root(q)
            except ValueError:
                continue  # no real root
            rp = max(r.real for r in np.roots(list(reversed(p))) if abs(r.imag) < 1e-9)
            rq = max(r.real for r in np.roots(list(reversed(q))) if abs(r.imag) < 1e-9)
            got = compare_largest_roots(p, q)
            assert compare_largest_roots(p, q, seeds=(rp, rq)) == got
            if abs(rp - rq) > 1e-6:
                assert got == (1 if rp > rq else -1)
