"""Graph spectra: float eigenpairs from LAPACK, exact characteristic polynomials.

* :func:`perron`, :func:`perron_rho_batch` -- numpy's LAPACK symmetric
  eigensolver, for the dominant eigenpair of a connected graph (checked
  by :class:`PerronPair`) and the spectral radii of a batch;
* :func:`int_charpoly` / :func:`exact_compare_rho` -- exact integer
  characteristic polynomials with exact largest-root comparison, used to
  resolve census ties where float equality proves nothing.  Loopless true
  twins (equal closed rows) split off first: for their m classes and the
  m x m quotient Q, det(xI - A) = det(xI - Q) (x + 1)^(n - m), each twin
  pair giving the eigenvalue -1 (equitable partitions; Cvetkovic,
  Rowlinson and Simic, An Introduction to the Theory of Graph Spectra,
  2010).  The paper's clique join has three classes, so its charpoly is
  the cubic times (x + 1)^(n - 3), and a twin-free graph has Q = A.
  False twins (equal open rows) are not grouped; no workload needs them,
  and a graph past order 32 made of them (star(40)) raises.  The traces
  of Q, Q^2, ..., Q^m come from float64 matmuls modulo word-size primes,
  reduced (an exact int64 remainder) only when an integer bound says a
  product could reach 2^53, so every partial sum and trace is an exact
  float; Newton's identities then run modulo the product M of the
  primes, and M exceeds twice a bound B on det(xI - Q)'s coefficients
  (Schur's and Maclaurin's inequalities, from the ones in A).  Float
  eigenvalues only seed the brackets that :mod:`specrad.exactroots`
  certifies with Descartes' rule of signs.  Before any characteristic
  polynomial, :func:`exact_compare_rho` screens graphs whose degree
  sequences differ on the same twin quotient: Q has the graph's radius,
  its float Perron vector comes from eigh on the symmetrized quotient
  D^(-1/2) (DQ) D^(-1/2) (D the class sizes), and that vector, rounded
  to positive integers, gives an exact Collatz-Wielandt enclosure of the
  radius; disjoint enclosures settle the order.  The clique join's
  screen solves a 3 x 3 matrix, and a one-edge move of it a 6 x 6 or
  7 x 7 one.
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
        v = self.vec
        return float(np.abs(adjacency @ v - self.rho * v).max())

    def check(self, adjacency):
        """Assert the defining invariants against the adjacency matrix."""
        v = self.vec
        if v.ndim != 1 or adjacency.shape != (v.size, v.size):
            raise AssertionError(f"Perron vector of shape {v.shape} does not fit "
                                 f"a matrix of shape {adjacency.shape}")
        if not math.isfinite(self.rho):
            raise AssertionError("Perron radius is not finite")
        if not abs(math.sqrt(v @ v) - 1.0) <= 1e-12:  # NaN and inf fail too
            raise AssertionError("Perron vector is not unit length")
        res = self.residual(adjacency)
        if res > RESIDUAL_FACTOR * max(1.0, self.rho):
            raise AssertionError(f"Perron residual {res:.3e} too large")
        if v.min() <= 0:
            raise AssertionError("Perron vector has a non-positive entry")
        return self


@dataclass(frozen=True)
class IntCharPoly:
    """Exact integer coefficients of det(xI - A), ascending powers, monic."""

    coeffs: tuple


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


def _quotient_top_pair(c, sizes):
    """Top eigenpair (rho, x) of the quotient Q = D^-1 C, D = diag(sizes).

    C = DQ (C_ij = n_i q_ij) is a symmetric integer matrix, so
    S = D^{-1/2} C D^{-1/2}, entry C_ij / (sqrt(n_i) sqrt(n_j)), is exactly
    symmetric; it is D^{1/2} Q D^{-1/2}, so its top pair (rho, u) gives
    x = D^{-1/2} u with Q x = rho x.  When every size is 1, C is Q and
    goes to :func:`_top_pair` as it is.
    """
    c = np.asarray(c, dtype=float)
    if max(sizes) == 1:
        return _top_pair(c)
    d = np.sqrt(np.array(sizes, dtype=float))
    rho, u = _top_pair(c / np.outer(d, d))
    return rho, u / d


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
    Entries must be finite, since LAPACK turns NaN into a plausible
    radius, and each matrix symmetric, since eigvalsh reads only its
    lower triangle.
    """
    a = np.asarray(mats, dtype=float)
    if a.ndim != 3 or a.shape[1] != a.shape[2] or not a.shape[1]:
        raise ValueError(f"perron_rho_batch needs a (B, n, n) stack, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("perron_rho_batch needs finite entries")
    if not np.array_equal(a, a.transpose(0, 2, 1)):
        raise ValueError("perron_rho_batch needs symmetric matrices")
    return np.linalg.eigvalsh(a)[:, -1]


# int_charpoly reads the traces of Q, Q^2, ..., Q^m, Q the twin quotient of
# order m <= 32, modulo these primes, at most 2^30.  A stored power is reduced
# (_reduce) before the next product could reach 2^53, and a reduced power has
# entries below max(p); a row of Q sums to a row sum dmax of A, so the next
# power's entries and its trace stay below m * dmax * 2^30, which int_charpoly
# checks is below 2^53 (it is for every n <= 32, as 32 * 32 * 2^30 = 2^40):
# float64 holds every partial sum exactly, whatever order BLAS sums in.  All
# three multiply to M > 2^89, above twice charpoly_bound(m, ones) for every
# m <= 32 and ones <= 1024 (the largest, at (32, 1024), is below 2^86), so
# Newton's identities modulo M give every coefficient of det(xI - Q) for every
# 0/1 matrix of order n <= 32; every prime exceeds 32, so each divisor k <= m
# is a unit mod M.
CHARPOLY_PRIMES = (2**30 - 35, 2**30 - 41, 2**30 - 83)


def _crt_table(primes):
    """(M, weights, inverses, pv, pmax) for the product M of `primes`.

    x = sum(r_i * w_i) mod M has x = r_i mod p_i; the weights w_i are
    Python integers in an object array, so an int64 array of residues
    times it is an exact object matmul.  inverses[k] is 1/k mod M for
    1 <= k <= 32 (inverses[0] is unused).  pv holds the primes as int64,
    for :func:`_reduce`, and pmax is the largest.
    """
    modulus = math.prod(primes)
    weights = np.array([modulus // p * pow(modulus // p, -1, p) for p in primes], dtype=object)
    inverses = (0,) + tuple(pow(k, -1, modulus) for k in range(1, 33))
    return modulus, weights, inverses, np.array(primes, dtype=np.int64), max(primes)


_CRT = [_crt_table(CHARPOLY_PRIMES[:i]) for i in range(1, len(CHARPOLY_PRIMES) + 1)]


def _reduce(block, primes):
    """Reduce `block` in place modulo the int64 `primes`, broadcast against it.

    The block holds nonnegative integers below 2^53 as float64, so the
    int64 cast is exact and the residues, in [0, p), are written back
    exactly.  An integer remainder, not np.fmod: the C library's fmod
    runs a slow long division when the quotient is large.
    """
    np.remainder(block.astype(np.int64), primes, out=block)


def charpoly_bound(n, ones):
    """Integer B >= |c| for every coefficient c of an n x n matrix's charpoly.

    The matrix is A, a 0/1 matrix with `ones` nonzero entries (twice the
    edges of a graph), or any n x n matrix whose eigenvalues are some of
    A's, counted with multiplicity, such as the twin quotient Q of
    :func:`int_charpoly`: det(xI - A) is det(xI - Q) times linear factors.
    The coefficient of x^(n-k) is +- e_k of the eigenvalues.  Their squared
    moduli sum to at most ||A||_F^2 = ones (Schur's inequality), so their
    mean modulus is at most sqrt(ones / n), and Maclaurin's inequality bounds
    |e_k| <= e_k(|lambda|) by C(n, k) (ones / n)^(k/2).  No symmetry is
    assumed.

    B is isqrt(T_k) + 1 for the largest term T_k = C(n, k)^2 ones^k / n^k
    (floored).  The ratio T_(k+1) / T_k = ((n - k) / (k + 1))^2 ones / n
    decreases in k, so the terms rise while (n - k)^2 ones >= (k + 1)^2 n
    and fall after: the peak is the first k that fails that integer test,
    and only that term is computed.
    """
    # the terms rise while k <= (n s - 1) / (s + 1), s = sqrt(ones / n): a float
    # guess at the peak, settled by the integer test on each side
    s = math.sqrt(ones / n)
    k = min(n, max(0, int((n * s - 1) / (s + 1)) + 1))
    while k > 0 and (n - k + 1) ** 2 * ones < k**2 * n:
        k -= 1
    while k < n and (n - k) ** 2 * ones >= (k + 1) ** 2 * n:
        k += 1
    return math.isqrt(math.comb(n, k) ** 2 * ones**k // n**k) + 1


def _twin_quotient(g):
    """Loopless true-twin classes of g's rows and their integer quotient: (q, sizes).

    Rows are read as they are, asymmetry included.  Loopless true twins
    share their closed row (own bit set); one dict keyed on that row
    groups them, and a looped vertex is keyed on ~v, a negative key no
    closed row has, so it stays alone, as do false twins (equal open
    rows).  Two twins' rows agree outside their class C, so q[a][b], the
    ones that a vertex of class a has in class b, is the same for every
    vertex of a: the partition is equitable, and q (float64, exact) is
    its quotient.  If u, v in C, row u - row v = e_v - e_u, so e_u - e_v
    is an eigenvector of A^T with eigenvalue -1 and

        det(xI - A) = det(xI - Q) * (x + 1)^(n - m)

    for the m classes.  sizes lists the class sizes, in the order of q's
    rows.  When every key is distinct, every class is a singleton and q
    is the adjacency matrix.  Bits at or above n take part in the keys:
    rows that differ only there stay apart, and any split of a twin
    class is itself a twin partition.
    """
    n = g.n
    rows = g.rows
    classes = {}
    for v, r in enumerate(rows):
        b = 1 << v
        key = ~v if r & b else r | b
        classes[key] = classes.get(key, 0) | b
    if len(classes) == n:
        return g.adjacency_matrix(), [1] * n
    masks = list(classes.values())
    reps = [rows[(c & -c).bit_length() - 1] for c in masks]
    q = np.array([(r & c).bit_count() for r in reps for c in masks], dtype=float)
    return q.reshape(len(masks), -1), [c.bit_count() for c in masks]


def _times_power(c, e):
    """Coefficients of c(x) (x + 1)^e, ascending.

    Kronecker substitution: the product is evaluated at x = X = 2^K in one
    integer multiplication, and its coefficients are read back as signed
    base-X digits.  Every coefficient is at most sum|c| * 2^e < X / 2 in
    absolute value, so each digit is determined.
    """
    shift = sum(map(abs, c)).bit_length() + e + 1
    x = 1 << shift
    v = 0
    for ci in reversed(c):
        v = v * x + ci
    v *= (x + 1) ** e
    out = []
    for _ in range(len(c) + e):
        d = v & (x - 1)
        if 2 * d >= x:
            d -= x
        out.append(d)
        v = (v - d) >> shift
    return out


def int_charpoly(g):
    """det(xI - A(g)) with exact integer coefficients, through the twin quotient.

    :func:`_twin_quotient` groups the loopless true twins (equal closed
    rows), and det(xI - A) is det(xI - Q) for their m x m quotient Q
    times (x + 1)^(n - m).  The clique join K_k + (K_a u K_b) has the
    three classes S, A and B, so its Q is ``two_clique_quotient(k, a, b)``
    and the product is (x + 1)^(n - 3) times the paper's cubic; a
    twin-free graph has Q = A.

    det(xI - Q) comes from power traces and Newton's identities.  The
    powers Q, Q^2, ..., Q^m are float64 matmuls, one per power, with the
    primes in use side by side in the columns.  A power is reduced
    (:func:`_reduce`) only when an integer bound on its entries (Q's are
    at most the largest class size), times m and the largest row sum of
    A (also Q's), says the next power or its trace could reach 2^53.  One
    einsum reads every trace; the traces are rebuilt by CRT modulo the
    product M of the primes, and k c_k = -sum(c_(k-i) t_i, i = 1..k) runs
    modulo M (every prime exceeds m, so k is a unit).  Q's eigenvalues are
    eigenvalues of A, so their squared moduli sum to at most the ones in
    A (Schur's inequality), and Maclaurin's inequality bounds every
    coefficient of det(xI - Q) by charpoly_bound(m, ones in A).  Just
    enough primes are used for M to exceed twice that bound, so the
    symmetric residue of each c_k is the coefficient itself.  The two
    exactness invariants -- float partial sums and traces below 2^53 (as
    m * dmax * max(p) < 2^53, which makes the product after a reduction
    exact), M above 2B -- are checked.  The factor (x + 1)^(n - m) is
    then multiplied in exactly.  Newton's identities need no symmetry:
    asymmetric and looped rows are taken as they are.

    Raises ValueError when Q has more than 32 classes, or, which needs
    n > 32, when M or 2^53 is too small for these bounds.  False twins
    (equal open rows) and looped twins stay singletons, so a graph with
    n > 32 whose twins are of those kinds, such as star(40) or K_(20,20),
    has more than 32 classes and raises.
    """
    q, sizes = _twin_quotient(g)
    m = len(sizes)
    if m > 32:
        raise ValueError(f"int_charpoly capped at 32 twin classes (got {m})")
    # the ones of each row that the dense matrix keeps, its n low bits
    full = (1 << g.n) - 1
    ones = [(r & full).bit_count() for r in g.rows]
    dmax = max(ones)
    bound = charpoly_bound(m, sum(ones))
    for modulus, weights, inverses, pv, pmax in _CRT:
        if modulus > 2 * bound:
            break
    else:
        raise ValueError(f"int_charpoly: coefficient bound {bound} needs more primes")
    if m * dmax * pmax >= 2**53:
        raise ValueError(f"int_charpoly: row sum {dmax} too large for exact traces")
    used = len(pv)
    # pw[k - 1] is Q^k with the primes side by side: pw4[k - 1, i, j, t] is
    # (Q^k)[i, j], modulo pv[t] once reduced
    pw = np.empty((m, m, m * used))
    pw4 = pw.reshape(m, m, m, used)
    pw4[0] = q[:, :, None]
    views = list(pw)  # the views pw[0], ..., pw[m - 1], made once
    top = max(sizes) + 1  # every entry of pw[k - 1] is below top
    for k in range(1, m):
        if m * dmax * top >= 2**53:  # Q^(k+1) or its trace could be inexact
            _reduce(pw4[k - 1], pv)
            top = pmax
        np.matmul(q, views[k - 1], out=views[k])
        top *= dmax
    # every trace is an integer below 2^53, so int64 holds it; CRT takes any
    # representative of each residue, here sum(r_i w_i) in Python integers
    # (an object matmul).  rt[i - 1] is t_i mod M, t_i the trace of Q^i
    rt = (np.einsum("kiit->kt", pw4).astype(np.int64) @ weights).tolist()
    c = [1]  # c[k] is the coefficient of x^(m-k), modulo M
    for k in range(1, m + 1):
        # c[j] meets rt[k - 1 - j] = t_(k-j), for j = 0..k-1
        s = sum(map(operator.mul, c, rt[k - 1::-1]))
        c.append(-s * inverses[k] % modulus)
    # a list, not a generator: on CPython 3.11 a generator expression here
    # made a long benchmark process's peak RSS grow ~4 KB per 80 calls
    c = [x - modulus if 2 * x > modulus else x for x in reversed(c)]
    if m < g.n:
        c = _times_power(c, g.n - m)
    return IntCharPoly(tuple(c))


def _below(r, s):
    """r < s for rationals held as (num, den) pairs with den > 0."""
    return r[0] * s[1] < s[0] * r[1]


def _enclosure(q, vec):
    """Collatz-Wielandt enclosure of rho(q), or None when vec rounds below 1 somewhere.

    x = rint(vec * 2^52) must have every entry >= 1.  For a nonnegative
    matrix and a positive x, min (qx)_i / x_i <= rho <= max (qx)_i / x_i
    (Collatz 1942, Wielandt 1950), with no symmetry or irreducibility
    needed.  :func:`exact_compare_rho` passes a twin quotient Q, whose
    radius is the graph's.  Returns ((lo_num, lo_den), (hi_num, hi_den)),
    both exact, picked by integer cross-multiplication (:func:`_below`).
    """
    x = np.rint(vec * 2.0**52)
    if not x.min() >= 1:  # NaN fails too
        return None
    # |vec_i| <= 1 up to rounding, so x_i <= 2^53; a row of a twin quotient
    # sums to the ones in one row of A, at most n <= 32 (exact_compare_rho
    # checks n), so every (Qx)_i <= 2^58 and int64 holds Qx exactly
    assert x.max() <= 2**53, "Qx must fit int64"
    xi = x.astype(np.int64)
    qx = (q.astype(np.int64) @ xi).tolist()
    ratios = list(zip(qx, xi.tolist()))
    lo = hi = ratios[0]
    for r in ratios:
        if _below(r, lo):
            lo = r
        if _below(hi, r):
            hi = r
    return lo, hi


def exact_compare_rho(g, h):
    """Exact ordering of the spectral radii of two connected graphs.

    Graphs whose sorted degree sequences differ are screened first, each
    on its twin quotient Q (:func:`_twin_quotient`; Q = A for a twin-free
    graph).  A connected graph's Perron vector is constant on each twin
    class (swapping two twins is an automorphism), so it restricts to a
    positive eigenvector of Q and rho(Q) = rho(A).  The top pair of Q, from
    the symmetrized quotient (:func:`_quotient_top_pair`), gives an exact
    Collatz-Wielandt enclosure of that radius (see :func:`_enclosure`), and
    disjoint enclosures decide LESS or GREATER with no characteristic
    polynomial.  Equal degree sequences (likely relabelings, which no
    enclosure can separate) skip the screen; this only orders the work.
    Otherwise identical characteristic polynomials give EQUAL_POLY, and
    else the top eigenvalue -- the screen's, when it ran, else eigh's on
    each adjacency matrix -- seeds a bracket that is certified exactly
    (see :func:`exactroots.compare_largest_roots`).  Every verdict rests
    on integer arithmetic only -- never on float proximity.
    """
    for gr in (g, h):
        if gr.n > 32:
            raise ValueError("exact_compare_rho capped at n <= 32")
        if not is_connected(gr):
            raise ValueError("exact_compare_rho requires connected graphs")
    tops = []
    if sorted(g.degrees()) != sorted(h.degrees()):
        screens = []
        for gr in (g, h):
            quo, sizes = _twin_quotient(gr)
            # DQ; D = I when every class is a singleton
            dq = quo if len(sizes) == gr.n else quo * np.array(sizes, dtype=float)[:, None]
            rho, x = _quotient_top_pair(dq, sizes)
            tops.append(rho)
            screens.append(_enclosure(quo, x))
        eg, eh = screens
        if eg and eh:
            if _below(eg[1], eh[0]):
                return Ordering.LESS
            if _below(eh[1], eg[0]):
                return Ordering.GREATER
    p = int_charpoly(g).coeffs
    q = int_charpoly(h).coeffs
    if p == q:
        return Ordering.EQUAL_POLY
    # a pair that skipped the screen takes its seeds only now, so
    # relabelings (EQUAL_POLY) build no matrix and run no eigensolver
    seeds = tops or [_top_pair(gr.adjacency_matrix())[0] for gr in (g, h)]
    c = exactroots.compare_largest_roots(p, q, seeds=seeds)
    if c < 0:
        return Ordering.LESS
    if c > 0:
        return Ordering.GREATER
    return Ordering.EQUAL_RHO
