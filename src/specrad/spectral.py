"""Graph spectra: float eigenpairs from LAPACK, exact characteristic polynomials.

* :func:`perron`, :func:`perron_rho_batch`, :func:`full_spectrum` --
  numpy's LAPACK symmetric eigensolver, for the dominant eigenpair of a
  connected graph (checked by :class:`PerronPair`), the spectral radii
  of a batch, and whole spectra;
* :func:`int_charpoly` / :func:`exact_compare_rho` -- exact integer
  characteristic polynomials (modular Faddeev-LeVerrier, rebuilt by CRT
  from primes whose product covers a proven coefficient bound) with
  exact largest-root comparison, used to resolve census ties where float
  equality proves nothing.  Float eigenvalues only seed the brackets
  that :mod:`specrad.exactroots` certifies with Descartes' rule of signs.
"""

from __future__ import annotations

import enum
import math
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


# Faddeev-LeVerrier runs modulo these primes, both below 2^46.  Residues
# stay below 2p and a row of A has at most n <= 32 ones, so every entry of
# A @ M, and every trace, is an integer below 2 * 32 * 2^46 = 2^52: float64
# holds it exactly, whatever order BLAS sums in.  Their product, above 2^91,
# exceeds twice charpoly_bound(32, 32 * 32) (below 2^87), so CRT recovers
# every coefficient of every 0/1 matrix of order n <= 32.
CHARPOLY_PRIMES = (2**46 - 21, 2**46 - 57)


def _crt_table(primes):
    """(modulus, weights): x = sum(r_i * w_i) mod modulus has x = r_i mod p_i."""
    modulus = math.prod(primes)
    return modulus, tuple(modulus // p * pow(modulus // p, -1, p) for p in primes)


_CRT = [_crt_table(CHARPOLY_PRIMES[:i]) for i in range(1, len(CHARPOLY_PRIMES) + 1)]


def charpoly_bound(n, ones):
    """Integer B >= |c| for every coefficient c of det(xI - A), A an n x n 0/1 matrix.

    `ones` counts the nonzero entries of A (twice the edges of a graph).
    The coefficient of x^(n-k) is +- the sum of the principal k x k
    minors.  Hadamard's inequality bounds a minor on rows S by the
    product of sqrt(d_i), i in S, with d_i the ones in row i; summed over
    S that is e_k(sqrt(d)), which Maclaurin's inequality and concavity
    bound by C(n, k) (ones / n)^(k/2).  No symmetry is assumed.
    """
    return max(math.isqrt(math.comb(n, k) ** 2 * ones**k // n**k) + 1
               for k in range(n + 1))


def int_charpoly(g):
    """det(xI - A(g)) with exact integer coefficients.

    Modular Faddeev-LeVerrier: the recurrence M <- A M + c I runs modulo
    one or both CHARPOLY_PRIMES at once, as one float64 matmul per step
    on the primes stacked side by side, reduced with np.fmod.  The trace
    division by the step index is a modular inverse (every prime exceeds
    n).  Each coefficient is rebuilt by CRT as the symmetric residue,
    using just enough primes for their product to exceed twice
    charpoly_bound(n, ones in A).  Both invariants -- float
    intermediates below 2^53, prime product above 2B -- are asserted.
    """
    n = g.n
    if n > 32:
        raise ValueError(f"int_charpoly capped at n <= 32 (got {n})")
    a = g.adjacency_matrix()
    bound = charpoly_bound(n, int(a.sum()))
    used = next((i for i, (mod, _) in enumerate(_CRT, 1) if mod > 2 * bound), len(_CRT))
    primes = CHARPOLY_PRIMES[:used]
    modulus, weights = _CRT[used - 1]
    assert modulus > 2 * bound, "CRT modulus must exceed twice the coefficient bound"
    assert 2 * n * max(primes) < 2**53, "float intermediates must stay exact"
    pv = np.array(primes, dtype=float)
    # row i of m holds M[i, j] modulo primes[t] at column j * used + t
    m = np.zeros((n, n * used))
    m.reshape(n * n, used)[:: n + 1] = 1.0
    residues = []  # per step, the coefficient of x^(n-step) modulo each prime
    for step in range(1, n + 1):
        m = np.fmod((a @ m).reshape(n * n, used), pv)
        diag = m[:: n + 1]  # a view: the diagonal entries, one column per prime
        c = [-int(t) * pow(step, -1, p) % p for t, p in zip(diag.sum(axis=0).tolist(), primes)]
        residues.append(c)
        diag += c
        m = m.reshape(n, n * used)
    coeffs = [1]
    for c in residues:
        x = sum(r * w for r, w in zip(c, weights)) % modulus
        coeffs.append(x - modulus if 2 * x > modulus else x)
    return IntCharPoly(tuple(reversed(coeffs)))


def exact_compare_rho(g, h):
    """Exact ordering of the spectral radii of two connected graphs.

    Identical characteristic polynomials give EQUAL_POLY before any
    float work.  Otherwise the largest eigvalsh eigenvalue of each
    adjacency matrix seeds a bracket that is certified exactly (see
    :func:`exactroots.compare_largest_roots`); the verdict rests on
    integer sign computations only -- never on float proximity.
    """
    for gr in (g, h):
        if gr.n > 32:
            raise ValueError("exact_compare_rho capped at n <= 32")
        if not is_connected(gr):
            raise ValueError("exact_compare_rho requires connected graphs")
    p = int_charpoly(g).coeffs
    q = int_charpoly(h).coeffs
    if p == q:
        return Ordering.EQUAL_POLY
    seeds = [float(np.linalg.eigvalsh(gr.adjacency_matrix())[-1]) for gr in (g, h)]
    c = exactroots.compare_largest_roots(p, q, seeds=seeds)
    if c < 0:
        return Ordering.LESS
    if c > 0:
        return Ordering.GREATER
    return Ordering.EQUAL_RHO
