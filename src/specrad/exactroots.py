"""Exact real-root tools for integer polynomials.

Polynomials are tuples of Python ints in ascending power order, and all
arithmetic stays in the integers: one Horner pass gives den^d p(num/den),
whose sign is that of p(num/den), and gcds, square-free parts and Sturm
chains come from one primitive pseudo-remainder (the primitive PRS of
Collins and Brown-Traub).  The largest real root is held in a dyadic
bracket (lo, hi, e, f): the interval (lo/2^e, hi/2^e] of integers lo < hi,
or the root lo/2^e itself when lo == hi; f is p or its square-free part.

* Seeded certificate.  Given a float estimate (a caller's eigenvalue,
  or Newton's iteration from above in :func:`largest_real_root`),
  :func:`shift_variations` counts the sign variations V(r) of p(r + t);
  by Descartes' rule of signs V(r) bounds the number of roots above r
  and has the same parity.  So p(m) = 0 and V(m) = 0 prove the integer
  m nearest the seed the largest root, exactly.  Else rungs of widening
  reach around the seed on the 2^-SEED_BITS grid give, by one Horner
  evaluation each, hi with p(hi) lead >= 0 and lo with p(lo) lead < 0,
  and one count V(lo) = 1 proves that p has exactly one root above lo,
  that it is simple, and, as p lead < 0 just above lo and >= 0 at hi,
  that it lies in (lo, hi].  For a real-rooted p (the characteristic
  polynomial of a symmetric matrix) V(r) is exactly the number of roots
  above r, so a tight bracket around a good seed of a simple root
  always certifies.
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
from operator import index

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
# step of the old 2^-40 grid (about 9e-13) did not always cover
# eigvalsh's error for n <= 32: of 180 random connected graphs on 24-32
# vertices, two had an eigvalsh seed that certified only at four steps.
# So the rungs after the first keep the old reaches, 1, 4, 64, 2^12 and
# 2^20 steps of 2^-40: 8 steps of 2^-43 are one step of 2^-40, so an
# eigvalsh seed that certified on the old first rung certifies by the
# second.  The first rung, one step of 2^-43, gives a seed within a step
# of the root a bracket 2^-42 wide, which largest_real_root reads off
# with no halving; a missed rung costs one Horner evaluation.
SEED_BITS = 43
SEED_REACH = (1, 8, 32, 512, 1 << 15, 1 << 23)
# Newton's iteration for a seed stops after at most NEWTON_STEPS steps.
NEWTON_STEPS = 200


def normalize(p):
    """Drop trailing zero coefficients; the zero polynomial becomes ().

    Each coefficient passes through ``operator.index``: numpy integers
    become Python ints, and a float or Fraction raises TypeError.
    """
    p = tuple(map(index, p))
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
    scaled by positive factors, by synthetic division in one list."""
    q, dpow = list(p), 1
    for i in range(len(q) - 2, -1, -1):
        dpow *= den
        q[i] *= dpow
    for i in range(len(q) - 1):
        for j in range(len(q) - 2, i - 1, -1):
            q[j] += num * q[j + 1]
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

    Rational endpoints with lo <= hi (else ValueError); every real root
    lies in +-cauchy_bound.  The chain's polynomial must be square-free.
    """
    lo, hi = Fraction(lo), Fraction(hi)
    if lo > hi:
        raise ValueError(f"reversed interval ({lo}, {hi}]")
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
    """Certified bracket around a float seed, or None.

    With m = round(seed), p(m) = 0 and V(m) = 0 prove m the largest root:
    the zero-width bracket (m, m, 0, p).  Otherwise, with base the grid
    point at or below the seed and lead p's leading coefficient, hi is
    the first base + h (h in SEED_REACH) with p(hi) lead >= 0 and lo the
    first base - h with p(lo) lead < 0, each found by Horner.  Then one
    count, V(lo) = 1, proves exactly one simple root above lo; p lead is
    negative just above lo and not negative at hi > lo, so that root is
    in (lo, hi]: the bracket (lo, hi, SEED_BITS, p).  V(lo) > 1 means
    more than one root sits above lo, which widening cannot cure.
    """
    if not p:
        return None
    scale = 1 << SEED_BITS
    try:
        base = math.floor(float(seed) * scale)
    except (OverflowError, ValueError):  # a seed beyond float range, inf or NaN
        return None
    m = round(float(seed))
    if _value(p, m, 1) == 0 and _shift_variations(p, m, 1) == 0:
        return m, m, 0, p
    lead = p[-1]
    hi = next((base + h for h in SEED_REACH if _value(p, base + h, scale) * lead >= 0), None)
    lo = next((base - h for h in SEED_REACH if _value(p, base - h, scale) * lead < 0), None)
    if hi is None or lo is None or _shift_variations(p, lo, scale) != 1:
        return None
    return lo, hi, SEED_BITS, p


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
    is tried first through a Descartes certificate, exact for an integer
    root; without one, or if certification fails, Sturm bisection of the
    Cauchy interval isolates it.  Raises ValueError when p has no real root.
    """
    lo, hi, e, f = _refine(_isolate(normalize(p), seed), 30)
    if lo == hi:
        return ("exact", Fraction(lo, 1 << e))
    return ("interval", Fraction(lo, 1 << e), Fraction(hi, 1 << e), f)


def _newton_seed(p):
    """Float estimate of the largest real root of a normalized p, or None.

    Newton's iteration on the float coefficients, started at Fujiwara's
    bound 2 max |c_(d-k) / c_d|^(1/k), above every root, and stopped once
    an iterate fails to decrease (or after NEWTON_STEPS).  Above its
    largest root a real-rooted p is monotone and convex, so the iterates
    fall onto that root.  On other input the estimate may be poor; it
    is only a seed, so a bracket then fails to certify and Sturm takes
    over.  A coefficient beyond float range gives no seed.
    """
    if len(p) < 2:
        return None
    try:
        c = [float(a) for a in reversed(p)]
    except OverflowError:
        return None
    x = 2 * max(abs(a / c[0]) ** (1 / k) for k, a in enumerate(c[1:], 1))
    if x == math.inf:
        return None
    for _ in range(NEWTON_STEPS):
        v = dv = 0.0
        for a in c:
            dv = dv * x + v
            v = v * x + a
        if not dv:
            break
        nxt = x - v / dv
        if not -math.inf < nxt < x:  # no decrease, or NaN / -inf from overflow
            break
        x = nxt
    return x


def largest_real_root(p):
    """Largest real root of p as a float, within 1e-12.

    The seed comes from Newton's iteration from above
    (:func:`_newton_seed`); a coefficient too large for a float leaves
    Sturm with no seed.  The seed's bracket (see
    :func:`isolate_largest_root`; an integer root is exact) is at most
    2^-42 wide, below 1e-12 / 4: a seed certified on the first rungs
    of the 2^-43 grid needs no halving, and any wider bracket is bisected
    down to that width.  Its midpoint, correctly rounded, is returned.
    Raises OverflowError when that root is beyond float range, and
    ValueError when p has no real root.
    """
    p = normalize(p)
    lo, hi, e, _ = _refine(_isolate(p, _newton_seed(p)), 42)
    return (lo + hi) / (2 << e)


def compare_largest_roots(p, q, seeds=(None, None)):
    """Compare the largest real roots of p and q exactly: -1, 0, or +1.

    `seeds` holds an optional float estimate of each largest root (see
    :func:`isolate_largest_root`).  Both brackets are moved onto the finer
    of their two grids and halved together by exact sign bisection until
    they separate, as distinct roots do once the two widths sum to less
    than their gap.  While they overlap in (ilo, ihi], the roots are
    equal iff the gcd of the two bracket polynomials, formed on the
    first overlap, has a root there: a simple root, the only one there
    and not ihi, so the gcd changes sign across the overlap once ilo,
    rising to the root, is no root of the gcd.  So the loop ends.
    """
    a, b = (_isolate(normalize(f), s) for f, s in zip((p, q), seeds))
    e = max(a[2], b[2])
    a, b = ((lo << e - k, hi << e - k, e, f) for lo, hi, k, f in (a, b))
    shared = None  # gcd, formed on the first overlap
    while True:
        (alo, ahi, e, f), (blo, bhi, _, g) = a, b
        if alo == ahi:
            return _versus_root(b, alo)
        if blo == bhi:
            return -_versus_root(a, blo)
        if ahi <= blo:
            return -1  # alpha < ahi <= blo < beta
        if bhi <= alo:
            return 1
        if shared is None:
            shared = poly_gcd(f, g)
        ilo, ihi, den = max(alo, blo), min(ahi, bhi), 1 << e
        if len(shared) > 1 and _value(shared, ilo, den) * _value(shared, ihi, den) < 0:
            return 0
        a, b = _halve(a), _halve(b)
