"""Exact real-root tools for integer polynomials.

Polynomials are tuples of Python ints in ascending power order, and all
arithmetic stays in the integers: one Horner pass gives den^d p(num/den),
whose sign is that of p(num/den), and gcds, square-free parts and Sturm
chains come from one primitive pseudo-remainder (the primitive PRS of
Collins and Brown-Traub).  The largest real root is held in a dyadic
bracket (lo, hi, e, f): the interval (lo/2^e, hi/2^e] of integers lo < hi,
or the root lo/2^e itself when lo == hi; f is p or its square-free part.

* Seeded certificate.  Given a float estimate (a caller's eigenvalue,
  or numpy's polynomial roots in :func:`largest_real_root`), brackets
  of widening reach around it on the 2^-SEED_BITS grid are tried.
  :func:`shift_variations` counts the sign variations V(r) of p(r + t);
  by Descartes' rule of signs V(r) bounds the number of roots above r
  and has the same parity, so V(hi) = 0 and V(lo) = 1 prove that p has
  exactly one root above lo, that it is simple, and that it lies in
  (lo, hi].  The proof holds for every integer polynomial; for a
  real-rooted one (the characteristic polynomial of a symmetric
  matrix) V(r) is exactly the number of roots above r, so a tight
  bracket around a good seed always certifies.
* Sturm fallback.  Without a seed, or when no bracket certifies, the
  square-free part's Sturm chain counts roots while the Cauchy interval
  (-B, B] is bisected, until one root is left in the bracket.

Sturm isolates; sign bisection refines.  Either bracket holds exactly
one root, simple in f, with no root above.  A halving tests the midpoint
lo + hi on the grid of step 2^-(e+1), and two brackets being compared
share one grid, so every endpoint test is an integer comparison.
Fractions appear only at the public boundary, and floats only seed
brackets and read off final values, so comparisons of largest roots
(spectral radii of integer matrices) never hinge on rounding.
"""

from __future__ import annotations

import math
from fractions import Fraction
from math import gcd

import numpy as np

__all__ = [
    "normalize",
    "derivative",
    "sign_at",
    "shift_variations",
    "cauchy_bound",
    "sturm_chain",
    "count_roots_in",
    "square_free_part",
    "poly_gcd",
    "isolate_largest_root",
    "largest_real_root",
    "compare_largest_roots",
]

# Seeded brackets have endpoints on the grid of multiples of 2^-SEED_BITS;
# SEED_REACH lists the half-widths, in grid steps, tried in turn.  One
# step (about 9e-13) already covers eigvalsh's error for n <= 32.
SEED_BITS = 40
SEED_REACH = (1, 4, 64, 1 << 12, 1 << 20)
# Overlapping brackets are halved down to width 2^-GCD_BITS before the
# gcd is formed: a common root on a fine dyadic grid (the integer radius
# of a regular graph) is then met exactly by sign bisection, with no gcd.
GCD_BITS = 64


def normalize(p):
    """Drop trailing zero coefficients; the zero polynomial becomes ()."""
    p = tuple(p)
    d = len(p)
    while d and p[d - 1] == 0:
        d -= 1
    return p[:d]


def derivative(p):
    return tuple(i * c for i, c in enumerate(p) if i)


def _primitive(p):
    """Divide by the content, keeping the leading sign."""
    p = normalize(p)
    if not p:
        return p
    g = 0
    for c in p:
        g = gcd(g, abs(c))
    return tuple(c // g for c in p)


def _value(p, num, den):
    """den^d p(num/den) for a normalized p of degree d and den > 0."""
    acc, dpow = 0, 1
    for c in reversed(p):
        acc = acc * num + c * dpow
        dpow *= den
    return acc


def _shift_variations(p, num, den):
    """V(num/den) for a normalized p: the Taylor shift by num of
    den^d p(x / den), whose coefficients are those of p(num/den + t)
    scaled by positive factors, built by Horner in x = num + t."""
    q, dpow = [], 1
    for c in reversed(p):
        q = [num * x + y for x, y in zip(q + [0], [0] + q)]
        q[0] += c * dpow
        dpow *= den
    return _variations(q)


def sign_at(p, x):
    """Exact sign of p at a rational point (Fraction or int)."""
    x = Fraction(x)
    v = _value(normalize(p), x.numerator, x.denominator)
    return (v > 0) - (v < 0)


def shift_variations(p, r):
    """Sign variations V(r) of the coefficients of p(r + t), for rational r.

    Descartes' rule of signs: V(r) is at least the number of roots of p
    above r, counted with multiplicity, and differs from it by an even
    number; the two are equal when every root of p is real.
    """
    r = Fraction(r)
    return _shift_variations(normalize(p), r.numerator, r.denominator)


def cauchy_bound(p):
    """Integer B with every real root of p in (-B, B)."""
    p = normalize(p)
    if len(p) < 2:
        return 1
    lead = abs(p[-1])
    top = max(abs(c) for c in p[:-1])
    return 1 + (top + lead - 1) // lead


def _prem(a, b):
    """Primitive pseudo-remainder of a by a nonzero b.

    A positive multiple of the remainder of a / b over the rationals:
    b is negated when its leading coefficient is negative, so every
    elimination step scales a by a positive integer and the content
    divided out at the end is positive too.  Sturm signs survive.
    """
    if b[-1] < 0:
        b = tuple(-c for c in b)
    lb, db = b[-1], len(b) - 1
    a = list(normalize(a))
    while len(a) > db:
        lead, shift = a[-1], len(a) - 1 - db
        a = [lb * c for c in a]
        for i, c in enumerate(b):
            a[shift + i] -= lead * c
        a = list(normalize(a))
    return _primitive(a)


def poly_gcd(p, q):
    """Greatest common divisor as a primitive integer polynomial."""
    a, b = normalize(p), normalize(q)
    while b:
        a, b = b, _prem(a, b)
    return _primitive(a)


def square_free_part(p):
    """p with repeated factors collapsed: p / gcd(p, p'), made primitive.

    The gcd is primitive, so by Gauss's lemma the quotient has integer
    coefficients and the long division is exact in the integers.
    """
    p = normalize(p)
    if len(p) <= 2:
        return _primitive(p)
    g = poly_gcd(p, derivative(p))
    if len(g) <= 1:
        return _primitive(p)
    a = list(p)
    out = [0] * (len(a) - len(g) + 1)
    for sh in range(len(out) - 1, -1, -1):
        out[sh] = a[sh + len(g) - 1] // g[-1]
        for i, c in enumerate(g):
            a[sh + i] -= out[sh] * c
    assert not any(a), "p must be divisible by gcd(p, p')"
    return _primitive(out)


def sturm_chain(p):
    """Sturm chain of a square-free integer polynomial."""
    chain = [normalize(p)]
    d = derivative(chain[0])
    if d:
        chain.append(d)
        while rem := _prem(chain[-2], chain[-1]):
            chain.append(tuple(-c for c in rem))
    return chain


def _variations(values):
    """Sign changes along a sequence of integers, zeros skipped."""
    prev = var = 0
    for v in values:
        if v:
            if prev and (v > 0) != (prev > 0):
                var += 1
            prev = v
    return var


def _chain_variations(chain, num, den):
    """Sign variations of a Sturm chain at num/den."""
    return _variations(_value(f, num, den) for f in chain)


def count_roots_in(chain, lo, hi):
    """Distinct real roots of the chain's polynomial in (lo, hi].

    Endpoints are rationals; every real root lies in +-cauchy_bound.
    The chain's polynomial must be square-free.
    """
    lo, hi = Fraction(lo), Fraction(hi)
    return (_chain_variations(chain, lo.numerator, lo.denominator)
            - _chain_variations(chain, hi.numerator, hi.denominator))


def _versus_root(br, m):
    """Sign of m/2^e - root for the bracket's root and an integer m.

    Inside an interval bracket the polynomial f has just that root,
    simple, so above it f has the sign of its leading coefficient and
    below it the opposite sign; a zero-width bracket is the root itself.
    """
    lo, hi, e, f = br
    if not lo < m < hi:
        return (m > lo) - (m < hi)
    v = _value(f, m, 1 << e) * f[-1]
    return (v > 0) - (v < 0)


def _halve(br):
    """One exact sign-bisection step, onto the grid twice as fine."""
    lo, hi, e, f = 2 * br[0], 2 * br[1], br[2] + 1, br[3]
    mid = (lo + hi) // 2
    side = _versus_root((lo, hi, e, f), mid)
    if side <= 0:
        lo = mid
    if side >= 0:
        hi = mid
    return lo, hi, e, f


def _refine(br, bits):
    """Halve until the bracket is exact or at most 2^-bits wide."""
    while br[0] < br[1] and (br[1] - br[0]) << bits > 1 << br[2]:
        br = _halve(br)
    return br


def _seeded_bracket(p, seed):
    """Certified bracket (lo, hi, SEED_BITS, p) around a float seed, or None.

    With base the grid point at or below the seed, hi is the first
    base + h (h in SEED_REACH) with V(hi) = 0, so no root lies above it,
    and lo the first base - h with V(lo) = 1, so exactly one simple root
    lies above lo.  V(lo) > 1 means more than one root sits above lo,
    which widening cannot cure.
    """
    scale = 1 << SEED_BITS
    scaled = seed * scale
    if not math.isfinite(scaled):
        return None
    base = math.floor(scaled)
    hi = next((base + h for h in SEED_REACH if _shift_variations(p, base + h, scale) == 0), None)
    if hi is None:
        return None
    for h in SEED_REACH:
        v = _shift_variations(p, base - h, scale)
        if v == 1:
            return base - h, hi, SEED_BITS, p
        if v > 1:
            return None
    return None


def _sturm_bracket(p):
    """Bracket (lo, hi, e, f) with f the square-free part of p and its
    largest root the only root of f in (lo/2^e, hi/2^e], none above.

    The Cauchy interval is bisected on Sturm counts only while more than
    one root of f is left in the bracket; V(hi) is carried along.
    """
    sf = square_free_part(p)
    chain = sturm_chain(sf)
    bound = cauchy_bound(sf)
    lo, hi, e = -bound, bound, 0
    vhi = _chain_variations(chain, hi, 1)
    count = _chain_variations(chain, lo, 1) - vhi
    if count < 1:
        raise ValueError("polynomial has no real root")
    while count > 1:
        lo, hi, e = 2 * lo, 2 * hi, e + 1
        mid = (lo + hi) // 2
        vmid = _chain_variations(chain, mid, 1 << e)
        if vmid > vhi:
            lo, count = mid, vmid - vhi
        else:
            hi, vhi = mid, vmid
    return lo, hi, e, sf


def _isolate(p, seed):
    """Bracket of the largest real root of a normalized p: seeded if the
    seed certifies, else from Sturm; zero-width when hi is the root."""
    bracket = None if seed is None else _seeded_bracket(p, seed)
    lo, hi, e, f = bracket or _sturm_bracket(p)
    if _value(f, hi, 1 << e) == 0:
        return hi, hi, e, f
    return lo, hi, e, f


def isolate_largest_root(p, seed=None):
    """Isolating interval for the largest real root of p.

    Returns ('exact', r) when the largest root is found to be rational,
    else ('interval', lo, hi, f) with hi - lo <= 2^-30: f is p or its
    square-free part, and its only root above lo is a simple root in
    (lo, hi), the largest real root of p.  A float `seed` near that root
    is tried first through a Descartes certificate; without one, or if
    certification fails, Sturm bisection of the Cauchy interval isolates
    it.  Raises ValueError when p has no real root.
    """
    lo, hi, e, f = _refine(_isolate(normalize(p), seed), 30)
    if lo == hi:
        return ("exact", Fraction(lo, 1 << e))
    return ("interval", Fraction(lo, 1 << e), Fraction(hi, 1 << e), f)


def largest_real_root(p, abs_tol=1e-12):
    """Largest real root of p as a float, within abs_tol (finite, > 0).

    The largest real part among numpy's roots of p is the seed; a
    coefficient too large for a float leaves Sturm with no seed.  When the
    integer m nearest to it has p(m) = 0 and V(m) = 0, Descartes' rule
    proves m the largest root, exactly (this covers repeated roots on
    top, which no bracket certifies).  Otherwise the seed's bracket (see
    :func:`isolate_largest_root`) is bisected to width at most abs_tol/4
    on the dyadic grid, and its midpoint, correctly rounded, is returned.
    """
    if not (math.isfinite(abs_tol) and abs_tol > 0):
        raise ValueError(f"abs_tol must be finite and positive, got {abs_tol}")
    p = normalize(p)
    try:
        roots = np.roots(np.array(p[::-1], dtype=float))
    except OverflowError:  # a coefficient beyond float range: no seed
        roots = ()
    seed = float(roots.real.max()) if len(roots) else None
    if seed is not None and math.isfinite(seed):
        m = round(seed)
        if _value(p, m, 1) == 0 and _shift_variations(p, m, 1) == 0:
            return float(m)
    # 2^-bits <= abs_tol / 4, since abs_tol >= 2^(exponent - 1)
    bits = max(0, 3 - math.frexp(abs_tol)[1])
    lo, hi, e, _ = _refine(_isolate(p, seed), bits)
    return (lo + hi) / (2 << e)


def compare_largest_roots(p, q, seeds=(None, None)):
    """Compare the largest real roots of p and q exactly: -1, 0, or +1.

    `seeds` holds an optional float estimate of each largest root (see
    :func:`isolate_largest_root`).  Both brackets are moved onto the finer
    of their two grids and halved together by exact sign bisection until
    they separate.  Once both are at most 2^-GCD_BITS wide and still
    overlap in (ilo, ihi), the roots are equal iff the gcd of the two
    bracket polynomials has a root there.  It can have only that one,
    simple, and none at ihi, so a sign change between the ends shows it;
    a root of the gcd at ilo itself hides the change until a halving
    moves ilo, so the test repeats on every overlap.
    """
    a, b = (_isolate(normalize(f), s) for f, s in zip((p, q), seeds))
    e = max(a[2], b[2])
    a, b = ((lo << e - k, hi << e - k, e, f) for lo, hi, k, f in (a, b))
    shared = None  # gcd, formed on the first narrow overlap
    for _ in range(512):
        (alo, ahi, e, f), (blo, bhi, _, g) = a, b
        if alo == ahi:
            return _versus_root(b, alo)
        if blo == bhi:
            return -_versus_root(a, blo)
        if ahi <= blo:
            return -1  # alpha < ahi <= blo < beta
        if bhi <= alo:
            return 1
        if max(ahi - alo, bhi - blo) << GCD_BITS <= 1 << e:
            if shared is None:
                shared = poly_gcd(f, g)
            ilo, ihi, den = max(alo, blo), min(ahi, bhi), 1 << e
            if len(shared) > 1 and _value(shared, ilo, den) * _value(shared, ihi, den) < 0:
                return 0
        a, b = _halve(a), _halve(b)
    raise RuntimeError("compare_largest_roots failed to separate after 512 rounds")
