"""Self-contained symmetric eigensolvers.

Three independent routes to a graph's spectrum, cross-checkable against
each other:

* :func:`perron` -- power iteration for the dominant eigenpair of a
  connected graph (the only place the spectral radius is computed in
  bulk);
* :func:`full_spectrum` -- cyclic Jacobi rotations for all eigenvalues
  of a symmetric matrix;
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
    "Spectrum",
    "IntCharPoly",
    "Ordering",
    "perron",
    "perron_rho_batch",
    "full_spectrum",
    "int_charpoly",
    "exact_compare_rho",
    "charpoly_bound",
    "CHARPOLY_PRIMES",
    "DEFAULT_TOL",
    "RESIDUAL_FACTOR",
    "MAX_ITER",
]

DEFAULT_TOL = 1e-13        # Rayleigh-increment convergence test
RESIDUAL_FACTOR = 1e-10    # ||A v - rho v||_inf <= factor * max(1, rho)
MAX_ITER = 10**6


@dataclass(frozen=True)
class PerronPair:
    """Spectral radius with its positive unit eigenvector."""

    rho: float
    vec: np.ndarray

    def check(self, adjacency):
        """Assert the defining invariants against the adjacency matrix."""
        v = self.vec
        if abs(np.linalg.norm(v) - 1.0) > 1e-12:
            raise AssertionError("Perron vector is not unit length")
        res = np.max(np.abs(adjacency @ v - self.rho * v))
        if res > RESIDUAL_FACTOR * max(1.0, self.rho):
            raise AssertionError(f"Perron residual {res:.3e} too large")
        if np.min(v) <= 0:
            raise AssertionError("Perron vector has a non-positive entry")
        return self


@dataclass(frozen=True)
class Spectrum:
    """All eigenvalues, sorted ascending."""

    eigs: tuple

    @property
    def largest(self):
        return self.eigs[-1]

    def __len__(self):
        return len(self.eigs)


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


def _power_iterate(a, x, tol, residual_factor, max_iter):
    """Shared power-iteration core on (A + I); returns (rho, vec, residual).

    Iterating on A + I damps the period-2 oscillation a bipartite graph
    would otherwise induce, without moving the eigenvector.
    """
    rho_prev = math.inf
    for it in range(max_iter):
        z = a @ x
        rho = float(x @ z)
        res = float(np.max(np.abs(z - rho * x)))
        scale = max(1.0, abs(rho))
        if abs(rho - rho_prev) <= tol * scale and res <= residual_factor * scale:
            return rho, x, res
        rho_prev = rho
        y = z + x
        nrm = np.linalg.norm(y)
        x = y / nrm
    raise RuntimeError(
        f"power iteration did not converge in {max_iter} steps (last residual {res:.3e})")


def perron(g, tol=DEFAULT_TOL, max_iter=MAX_ITER, start=None):
    """Dominant eigenpair of a connected graph by power iteration.

    Starts from the all-ones direction (or `start`, any positive vector;
    the limit is the same either way) and stops once the Rayleigh
    quotient stabilizes to `tol` and the residual passes the PerronPair
    gate.  Disconnected input is rejected: the adjacency matrix is then
    reducible and callers should decompose into components first.
    """
    if not is_connected(g):
        raise ValueError("perron requires a connected graph; decompose first")
    a = g.adjacency_matrix()
    n = g.n
    if start is None:
        x = np.full(n, 1.0 / math.sqrt(n))
    else:
        x = np.asarray(start, dtype=float)
        if x.shape != (n,) or np.min(x) <= 0:
            raise ValueError("start vector must be positive of length n")
        x = x / np.linalg.norm(x)
    rho, vec, _ = _power_iterate(a, x, tol, RESIDUAL_FACTOR, max_iter)
    return PerronPair(rho, vec).check(a)


def perron_rho_batch(mats, tol=1e-15, residual_factor=1e-11, max_iter=500_000,
                     start=None, require_positive=False):
    """Spectral radii of a stack of adjacency matrices (B, n, n).

    Batched variant of the same (A + I) power iteration.  Each matrix
    follows its own trajectory and freezes at its own stopping point, so
    per-graph results do not depend on how the batch was grouped -- the
    property the census relies on for shard determinism.  Matrices must
    be adjacency matrices of connected graphs.
    """
    a = np.asarray(mats, dtype=float)
    b, n, _ = a.shape
    if start is None:
        x = np.full((b, n), 1.0 / math.sqrt(n))
    else:
        x = np.asarray(start, dtype=float).copy()
        x /= np.linalg.norm(x, axis=1, keepdims=True)
    rho = np.zeros(b)
    prev = np.full(b, np.inf)
    active = np.ones(b, dtype=bool)
    for _ in range(max_iter):
        z = np.matmul(a, x[:, :, None])[:, :, 0]
        new_rho = np.einsum("ij,ij->i", x, z)
        res = np.max(np.abs(z - new_rho[:, None] * x), axis=1)
        scale = np.maximum(1.0, np.abs(new_rho))
        rho = np.where(active, new_rho, rho)
        y = z + x
        y /= np.linalg.norm(y, axis=1, keepdims=True)
        done = (np.abs(new_rho - prev) <= tol * scale) & (res <= residual_factor * scale)
        stalled = np.all(y == x, axis=1)  # fixed point in float arithmetic
        active &= ~(done | stalled)
        if not active.any():
            if require_positive and np.min(x) <= 0:
                raise RuntimeError("batched Perron vector lost positivity")
            return rho
        prev = np.where(active, new_rho, prev)
        x = np.where(active[:, None], y, x)
    raise RuntimeError(f"batched power iteration: {int(active.sum())} matrices "
                       f"unconverged after {max_iter} steps")


def full_spectrum(m, off_factor=1e-12, max_sweeps=64):
    """All eigenvalues of a symmetric matrix by cyclic Jacobi rotations.

    Sweeps until the off-diagonal Frobenius mass drops below
    off_factor * ||m||_F.  Input must be symmetric within 1e-12.
    """
    a = np.array(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("full_spectrum needs a square matrix")
    if a.size and np.max(np.abs(a - a.T)) > 1e-12:
        raise ValueError("matrix is not symmetric within 1e-12")
    a = (a + a.T) / 2.0
    n = a.shape[0]
    norm = np.linalg.norm(a)
    if n == 1 or norm == 0.0:
        return Spectrum(tuple(np.sort(np.diag(a))))
    target = off_factor * norm
    offdiag = np.ones((n, n)) - np.eye(n)
    for _ in range(max_sweeps):
        off = float(np.linalg.norm(a * offdiag))
        if off <= target:
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
        norm = np.linalg.norm(a)
    else:
        raise RuntimeError("Jacobi sweeps did not reduce off-diagonal mass")
    return Spectrum(tuple(float(v) for v in np.sort(np.diag(a))))


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
