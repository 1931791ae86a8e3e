"""Graph spectra: float eigenpairs from LAPACK, exact characteristic polynomials.

* :func:`perron`, :func:`perron_rho_batch`, :func:`full_spectrum` --
  numpy's LAPACK symmetric eigensolver, for the dominant eigenpair of a
  connected graph (checked by :class:`PerronPair`), the spectral radii
  of a batch, and whole spectra;
* :func:`int_charpoly` / :func:`exact_compare_rho` -- exact integer
  characteristic polynomials with exact largest-root comparison, used to
  resolve census ties where float equality proves nothing.  The traces
  of A, A^2, ..., A^n come from float64 matmuls modulo word-size primes,
  reduced only when an integer bound says a product could reach 2^53, so
  every partial sum and trace is an exact float; Newton's identities
  then run modulo the product M of the primes, and M exceeds twice a
  proven coefficient bound B.  Float eigenvalues only seed the brackets
  that :mod:`specrad.exactroots` certifies with Descartes' rule of signs.
  Before any characteristic polynomial, :func:`exact_compare_rho`
  screens graphs whose degree sequences differ: each float Perron
  vector, rounded to positive integers, gives an exact Collatz-Wielandt
  enclosure of the radius, and disjoint enclosures settle the order.
"""

from __future__ import annotations

import enum
import math
import operator
from dataclasses import dataclass

import numpy as np

from . import exactroots
from .graphs import is_connected

__all__ = [
    "PerronPair",
    "IntCharPoly",
    "Ordering",
    "perron",
    "perron_rho_batch",
    "full_spectrum",
    "int_charpoly",
    "exact_compare_rho",
    "charpoly_bound",
    "CHARPOLY_PRIMES",
    "RESIDUAL_FACTOR",
]

RESIDUAL_FACTOR = 1e-10    # ||A v - rho v||_inf <= factor * max(1, rho)


@dataclass(frozen=True)
class PerronPair:
    """Spectral radius with its positive unit eigenvector."""

    rho: float
    vec: np.ndarray

    def residual(self, adjacency):
        """max |A v - rho v|, the eigenpair residual :meth:`check` gates."""
        return float(np.max(np.abs(adjacency @ self.vec - self.rho * self.vec)))

    def check(self, adjacency):
        """Assert the defining invariants against the adjacency matrix."""
        v = self.vec
        if not math.isfinite(self.rho):
            raise AssertionError("Perron radius is not finite")
        if not abs(np.linalg.norm(v) - 1.0) <= 1e-12:  # NaN and inf fail too
            raise AssertionError("Perron vector is not unit length")
        res = self.residual(adjacency)
        if res > RESIDUAL_FACTOR * max(1.0, self.rho):
            raise AssertionError(f"Perron residual {res:.3e} too large")
        if np.min(v) <= 0:
            raise AssertionError("Perron vector has a non-positive entry")
        return self


@dataclass(frozen=True)
class IntCharPoly:
    """Exact integer coefficients of det(xI - A), ascending powers, monic."""

    coeffs: tuple

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def evaluate(self, x):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc


class Ordering(enum.Enum):
    """Outcome of an exact spectral-radius comparison.

    EQUAL_POLY means the two characteristic polynomials are identical;
    EQUAL_RHO covers the rarer case of equal largest roots with
    different polynomials (e.g. two cycles of different length).
    """

    LESS = "less"
    EQUAL_POLY = "equal_poly"
    EQUAL_RHO = "equal_rho"
    GREATER = "greater"


def _top_pair(a):
    """Largest eigenvalue of a symmetric matrix and its eigenvector, summing >= 0.

    A Perron vector is determined up to sign; LAPACK picks either, so
    the sign is fixed by the sum of the entries.
    """
    w, v = np.linalg.eigh(a)
    u = v[:, -1]
    return float(w[-1]), (-u if u.sum() < 0 else u)


def perron(g):
    """Dominant eigenpair of a connected graph.

    The top pair of LAPACK's symmetric eigensolver, with the sign fixed
    so the vector is positive, passes the PerronPair gate (unit norm,
    residual, positivity) before it is returned.  Disconnected input is
    rejected: the adjacency matrix is then reducible and callers should
    decompose into components first.
    """
    if not is_connected(g):
        raise ValueError("perron requires a connected graph; decompose first")
    a = g.adjacency_matrix()
    return PerronPair(*_top_pair(a)).check(a)


def perron_rho_batch(mats):
    """Spectral radii of a stack of adjacency matrices (B, n, n).

    The largest eigenvalue of each matrix, which for a nonnegative
    symmetric matrix is its spectral radius.  LAPACK runs on each matrix
    on its own, so per-graph results do not depend on how the batch was
    grouped -- the property the census relies on for shard determinism.
    Entries must be finite: LAPACK turns NaN into a plausible radius.
    """
    a = np.asarray(mats, dtype=float)
    if not np.isfinite(a).all():
        raise ValueError("perron_rho_batch needs finite entries")
    return np.linalg.eigvalsh(a)[:, -1]


def full_spectrum(m):
    """All eigenvalues of a symmetric matrix, ascending, from LAPACK.

    Input must be square, finite and symmetric within 1e-12.
    """
    a = np.array(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("full_spectrum needs a square matrix")
    if not np.isfinite(a).all():
        raise ValueError("full_spectrum needs finite entries")
    if a.size and np.max(np.abs(a - a.T)) > 1e-12:
        raise ValueError("matrix is not symmetric within 1e-12")
    return tuple(float(v) for v in np.linalg.eigvalsh((a + a.T) / 2.0))


# int_charpoly reads the traces of A, A^2, ..., A^n modulo these primes, at
# most 2^30.  A stored power is reduced (np.fmod) before the next product
# could reach 2^53, and a reduced power has entries below max(p); a row of
# A holds at most n <= 32 ones, so the next power's entries and its trace
# stay below 32 * 32 * 2^30 = 2^40 < 2^53: float64 holds every partial sum
# exactly, whatever order BLAS sums in.  All three multiply to M > 2^89,
# above twice charpoly_bound(32, 32 * 32) (below 2^87), so Newton's
# identities modulo M give every coefficient of every 0/1 matrix of order
# n <= 32; every prime exceeds 32, so each divisor k <= n is a unit mod M.
CHARPOLY_PRIMES = (2**30 - 35, 2**30 - 41, 2**30 - 83)


def _crt_table(primes):
    """(M, weights, inverses) for the product M of `primes`.

    x = sum(r_i * w_i) mod M has x = r_i mod p_i, and inverses[k] is
    1/k mod M for 1 <= k <= 32 (inverses[0] is unused).
    """
    modulus = math.prod(primes)
    weights = tuple(modulus // p * pow(modulus // p, -1, p) for p in primes)
    return modulus, weights, (0,) + tuple(pow(k, -1, modulus) for k in range(1, 33))


_CRT = [_crt_table(CHARPOLY_PRIMES[:i]) for i in range(1, len(CHARPOLY_PRIMES) + 1)]


def charpoly_bound(n, ones):
    """Integer B >= |c| for every coefficient c of det(xI - A), A an n x n 0/1 matrix.

    `ones` counts the nonzero entries of A (twice the edges of a graph).
    The coefficient of x^(n-k) is +- the sum of the principal k x k
    minors.  Hadamard's inequality bounds a minor on rows S by the
    product of sqrt(d_i), i in S, with d_i the ones in row i; summed over
    S that is e_k(sqrt(d)), which Maclaurin's inequality and concavity
    bound by C(n, k) (ones / n)^(k/2).  No symmetry is assumed.

    B is isqrt(T_k) + 1 for the largest term T_k = C(n, k)^2 ones^k / n^k
    (floored).  The ratio T_(k+1) / T_k = ((n - k) / (k + 1))^2 ones / n
    decreases in k, so the terms rise while (n - k)^2 ones >= (k + 1)^2 n
    and fall after: one integer test per step finds the peak, and only
    that term is computed.
    """
    k = 0
    while k < n and (n - k) ** 2 * ones >= (k + 1) ** 2 * n:
        k += 1
    return math.isqrt(math.comb(n, k) ** 2 * ones**k // n**k) + 1


def int_charpoly(g):
    """det(xI - A(g)) with exact integer coefficients.

    Power traces and Newton's identities.  The powers A, A^2, ..., A^n
    are float64 matmuls, one per power, with the primes in use side by
    side in the columns.  A power is reduced with np.fmod only when an
    integer bound on its entries, times n and the largest row sum of A,
    says the next power or its trace could reach 2^53.  One einsum reads
    every trace; the traces are rebuilt by CRT modulo the product M of
    the primes, and k c_k = -sum(c_(k-i) t_i, i = 1..k) runs modulo M
    (every prime exceeds n, so k is a unit).  Just enough primes are used
    for M to exceed twice charpoly_bound(n, ones in A), so the symmetric
    residue of each c_k is the coefficient itself.  The two exactness
    invariants -- float partial sums and traces below 2^53, M above 2B --
    are asserted, the first as n * dmax * max(p) < 2^53, which makes the
    product after a reduction exact.  Newton's identities need no
    symmetry: asymmetric and looped rows are taken as they are.
    """
    n = g.n
    if n > 32:
        raise ValueError(f"int_charpoly capped at n <= 32 (got {n})")
    a = g.adjacency_matrix()
    row_sums = a.sum(axis=1)
    dmax = int(row_sums.max())
    bound = charpoly_bound(n, int(row_sums.sum()))
    used = next((i for i, (mod, _, _) in enumerate(_CRT, 1) if mod > 2 * bound), len(_CRT))
    primes = CHARPOLY_PRIMES[:used]
    modulus, weights, inverses = _CRT[used - 1]
    pmax = max(primes)
    assert modulus > 2 * bound, "CRT modulus must exceed twice the coefficient bound"
    assert n * dmax * pmax < 2**53, "a reduced power must multiply exactly"
    pv = np.tile(np.array(primes, dtype=float), n)  # the prime of each column
    # pw[k - 1] is A^k with the primes side by side: pw4[k - 1, i, j, t] is
    # (A^k)[i, j], modulo primes[t] once reduced
    pw = np.empty((n, n, n * used))
    pw4 = pw.reshape(n, n, n, used)
    pw4[0] = a[:, :, None]
    top = 2  # every entry of pw[k - 1] is below top
    for k in range(1, n):
        if n * dmax * top >= 2**53:  # A^(k+1) or its trace could be inexact
            np.fmod(pw[k - 1], pv, out=pw[k - 1])
            top = pmax
        np.matmul(a, pw[k - 1], out=pw[k])
        top *= dmax
    # every trace is an integer below 2^53, so int64 holds it; CRT takes any
    # representative of each residue
    traces = np.einsum("kiit->kt", pw4).astype(np.int64).tolist()
    t = [sum(map(operator.mul, rs, weights)) % modulus for rs in traces]
    c = [1]  # c[k] is the coefficient of x^(n-k), modulo M
    for k in range(1, n + 1):
        s = sum(map(operator.mul, c, reversed(t[:k])))
        c.append(-s * inverses[k] % modulus)
    # a list, not a generator: on CPython 3.11 a generator expression here
    # made a long benchmark process's peak RSS grow ~4 KB per 80 calls
    return IntCharPoly(tuple([x - modulus if 2 * x > modulus else x for x in reversed(c)]))


def _below(r, s):
    """r < s for rationals held as (num, den) pairs with den > 0."""
    return r[0] * s[1] < s[0] * r[1]


def _enclosure(a, vec):
    """Collatz-Wielandt enclosure of rho(a), or None when vec rounds below 1 somewhere.

    x = rint(vec * 2^52) must have every entry >= 1.  For a nonnegative
    matrix and a positive x, min (Ax)_i / x_i <= rho <= max (Ax)_i / x_i
    (Collatz 1942, Wielandt 1950), with no symmetry or irreducibility
    needed.  Returns ((lo_num, lo_den), (hi_num, hi_den)), both exact,
    picked by integer cross-multiplication (:func:`_below`).
    """
    x = np.rint(vec * 2.0**52)
    if not x.min() >= 1:  # NaN fails too
        return None
    # |vec_i| <= 1 up to rounding, so x_i <= 2^53; a 0/1 row has at most
    # 32 ones, so every (Ax)_i < 2^58 and int64 holds Ax exactly
    assert a.shape[0] <= 32 and x.max() <= 2**53, "Ax must fit int64"
    xi = x.astype(np.int64)
    ax = (a.astype(np.int64) @ xi).tolist()
    ratios = list(zip(ax, xi.tolist()))
    lo = hi = ratios[0]
    for r in ratios:
        if _below(r, lo):
            lo = r
        if _below(hi, r):
            hi = r
    return lo, hi


def exact_compare_rho(g, h):
    """Exact ordering of the spectral radii of two connected graphs.

    Graphs whose sorted degree sequences differ are screened first: the
    top eigh pair of each adjacency matrix gives an exact Collatz-Wielandt
    enclosure of its radius (see :func:`_enclosure`), and disjoint
    enclosures decide LESS or GREATER with no characteristic polynomial.
    Equal degree sequences (likely relabelings, which no enclosure can
    separate) skip the screen; this only orders the work.  Otherwise
    identical characteristic polynomials give EQUAL_POLY, and else the
    top eigenvalue of each matrix -- from the screen, when it ran -- seeds
    a bracket that is certified exactly (see
    :func:`exactroots.compare_largest_roots`).  Every verdict rests on
    integer arithmetic only -- never on float proximity.
    """
    for gr in (g, h):
        if gr.n > 32:
            raise ValueError("exact_compare_rho capped at n <= 32")
        if not is_connected(gr):
            raise ValueError("exact_compare_rho requires connected graphs")
    tops = None
    if sorted(g.degrees()) != sorted(h.degrees()):
        mats = [gr.adjacency_matrix() for gr in (g, h)]
        tops = [_top_pair(a) for a in mats]
        eg, eh = (_enclosure(a, v) for a, (_, v) in zip(mats, tops))
        if eg and eh:
            if _below(eg[1], eh[0]):
                return Ordering.LESS
            if _below(eh[1], eg[0]):
                return Ordering.GREATER
    p = int_charpoly(g).coeffs
    q = int_charpoly(h).coeffs
    if p == q:
        return Ordering.EQUAL_POLY
    if tops is None:
        seeds = [float(np.linalg.eigvalsh(gr.adjacency_matrix())[-1]) for gr in (g, h)]
    else:
        seeds = [rho for rho, _ in tops]
    c = exactroots.compare_largest_roots(p, q, seeds=seeds)
    if c < 0:
        return Ordering.LESS
    if c > 0:
        return Ordering.GREATER
    return Ordering.EQUAL_RHO
