"""Exact real-root tools for integer polynomials.

Polynomials are tuples of Python ints in ascending power order, and all
arithmetic stays in the integers: evaluation at a rational num/den
reduces to an integer sign, and gcds, square-free parts and Sturm chains
come from one primitive pseudo-remainder (the primitive PRS of Collins
and Brown-Traub).  The largest real root is bracketed in one of two ways.

* Seeded certificate.  Given a float estimate (a caller's eigenvalue,
  or numpy's polynomial roots in :func:`largest_real_root`), dyadic
  brackets (lo, hi] of widening reach around it are tried.
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
  is bisected, until one root is left in (lo, hi].

Sturm isolates; sign bisection refines.  Either bracket holds exactly
one root, simple in the polynomial carried with it, with no root above,
and from there all refinement is plain sign bisection.  Floats only
seed brackets and polish final values, so comparisons of largest roots
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
# Overlapping brackets are halved down to this width before the gcd is
# formed: a common root on a fine dyadic grid (the integer radius of a
# regular graph) is then met exactly by sign bisection, with no gcd.
GCD_WIDTH = Fraction(1, 1 << 64)


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


def sign_at(p, x):
    """Exact sign of p at a rational point (Fraction or int)."""
    p = normalize(p)
    if not p:
        return 0
    x = Fraction(x)
    num, den = x.numerator, x.denominator
    # Horner on den^deg * p(num/den); stays in the integers
    acc = p[-1]
    dpow = 1
    for c in reversed(p[:-1]):
        dpow *= den
        acc = acc * num + c * dpow
    return (acc > 0) - (acc < 0)


def shift_variations(p, r):
    """Sign variations V(r) of the coefficients of p(r + t), for rational r.

    Descartes' rule of signs: V(r) is at least the number of roots of p
    above r, counted with multiplicity, and differs from it by an even
    number; the two are equal when every root of p is real.  Computed in
    the integers as the Taylor shift by num of den^d p(x / den), whose
    coefficients are those of p(r + t) scaled by positive factors.
    """
    p = normalize(p)
    if not p:
        return 0
    r = Fraction(r)
    num, den = r.numerator, r.denominator
    q = [p[-1]]  # Horner in x = num + t; ascending coefficients in t
    dpow = 1
    for c in reversed(p[:-1]):
        dpow *= den
        q = ([num * q[0] + c * dpow]
             + [x + num * y for x, y in zip(q, q[1:])]
             + [q[-1]])
    return _variations((c > 0) - (c < 0) for c in q)


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


def _variations(signs):
    prev = 0
    var = 0
    for s in signs:
        if s == 0:
            continue
        if prev and s != prev:
            var += 1
        prev = s
    return var


def count_roots_in(chain, lo, hi):
    """Distinct real roots of the chain's polynomial in (lo, hi].

    Endpoints are rationals; every real root lies in +-cauchy_bound.
    The chain's polynomial must be square-free.
    """
    def var(x):
        return _variations(sign_at(f, x) for f in chain)

    return var(lo) - var(hi)


def _versus_root(loc, x):
    """Sign of x - root for a rational x and an interval locator.

    Above lo the locator's polynomial f has just that root, simple and
    below hi, so above it f has the sign of its leading coefficient and
    between lo and it the opposite sign.
    """
    _, lo, hi, f = loc
    if x <= lo:
        return -1
    if x >= hi:
        return 1
    s = sign_at(f, x)
    return s if f[-1] > 0 else -s


def _halve(loc):
    """One exact sign-bisection step of an interval locator."""
    _, lo, hi, f = loc
    mid = (lo + hi) / 2
    side = _versus_root(loc, mid)
    if side == 0:
        return ("exact", mid)
    return ("interval", lo, mid, f) if side > 0 else ("interval", mid, hi, f)


def _refine(loc, width):
    while loc[0] == "interval" and loc[2] - loc[1] > width:
        loc = _halve(loc)
    return loc


def _seeded_bracket(p, seed):
    """Certified (lo, hi, p) around a float seed, or None.

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
    for h in SEED_REACH:
        hi = Fraction(base + h, scale)
        if shift_variations(p, hi) == 0:
            break
    else:
        return None
    for h in SEED_REACH:
        lo = Fraction(base - h, scale)
        v = shift_variations(p, lo)
        if v == 1:
            return lo, hi, p
        if v > 1:
            return None
    return None


def _sturm_bracket(p):
    """(lo, hi, f) with f the square-free part of p and its largest root
    the only root of f in (lo, hi], none above hi.

    The Cauchy interval is bisected on Sturm counts only while more than
    one root of f is left in (lo, hi].
    """
    sf = square_free_part(p)
    chain = sturm_chain(sf)
    bound = cauchy_bound(sf)
    lo, hi = Fraction(-bound), Fraction(bound)
    count = count_roots_in(chain, lo, hi)
    if count < 1:
        raise ValueError("polynomial has no real root")
    while count > 1:
        mid = (lo + hi) / 2
        above = count_roots_in(chain, mid, hi)
        if above:
            lo, count = mid, above
        else:
            hi = mid
    return lo, hi, sf


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
    p = normalize(p)
    bracket = None if seed is None else _seeded_bracket(p, seed)
    lo, hi, f = bracket or _sturm_bracket(p)
    if sign_at(f, hi) == 0:
        return ("exact", hi)
    return _refine(("interval", lo, hi, f), Fraction(1, 1 << 30))


def largest_real_root(p, abs_tol=1e-12):
    """Largest real root of p as a float, within abs_tol.

    The largest real part among numpy's roots of p is the seed.  When the
    integer m nearest to it has p(m) = 0 and V(m) = 0, Descartes' rule
    proves m the largest root, exactly (this covers repeated roots on
    top, which no bracket certifies).  Otherwise the seed goes to
    :func:`isolate_largest_root`, whose interval is bisected to abs_tol
    and the midpoint polished by Newton steps clamped to it.
    """
    p = normalize(p)
    roots = np.roots(np.array(p[::-1], dtype=float))
    seed = float(roots.real.max()) if len(roots) else None
    if seed is not None and math.isfinite(seed):
        m = round(seed)
        if sign_at(p, m) == 0 and shift_variations(p, m) == 0:
            return float(m)
    loc = _refine(isolate_largest_root(p, seed=seed), Fraction(abs_tol) / 4)
    if loc[0] == "exact":
        return float(loc[1])
    _, lo, hi, _ = loc
    x = float((lo + hi) / 2)
    flo, fhi = float(lo), float(hi)
    dp = derivative(p)
    for _ in range(3):
        fx = _horner(p, x)
        dx = _horner(dp, x)
        if dx == 0:
            break
        x = min(max(x - fx / dx, flo), fhi)
    return x


def _horner(p, x):
    acc = 0.0
    for c in reversed(p):
        acc = acc * x + c
    return acc


def compare_largest_roots(p, q, seeds=(None, None)):
    """Compare the largest real roots of p and q exactly: -1, 0, or +1.

    `seeds` holds an optional float estimate of each largest root (see
    :func:`isolate_largest_root`).  The two isolating intervals are
    halved by exact sign bisection until they separate.  Once both are
    narrower than GCD_WIDTH and still overlap in (ilo, ihi), the roots
    are equal iff the gcd of the two locator polynomials has a root
    there.  It can have only that one, simple, and none at ihi, so a
    sign change between the ends shows it; a root of the gcd at ilo
    itself hides the change until a halving moves ilo, so the test
    repeats on every overlap.
    """
    a, b = (isolate_largest_root(f, seed=s) for f, s in zip((p, q), seeds))
    shared = None  # gcd, formed on the first narrow overlap
    for _ in range(512):
        if a[0] == "exact" and b[0] == "exact":
            return (a[1] > b[1]) - (a[1] < b[1])
        if a[0] == "exact":
            return _versus_root(b, a[1])
        if b[0] == "exact":
            return -_versus_root(a, b[1])
        if a[2] <= b[1]:
            return -1  # alpha < ahi <= blo < beta
        if b[2] <= a[1]:
            return 1
        if max(a[2] - a[1], b[2] - b[1]) <= GCD_WIDTH:
            if shared is None:
                shared = poly_gcd(a[3], b[3])
            ilo, ihi = max(a[1], b[1]), min(a[2], b[2])
            if len(shared) > 1 and sign_at(shared, ilo) * sign_at(shared, ihi) < 0:
                return 0
        a, b = _halve(a), _halve(b)
    raise RuntimeError("compare_largest_roots failed to separate after 512 rounds")
