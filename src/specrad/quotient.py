"""Equitable partitions, quotient matrices, interlacing, and the cubic.

A partition's quotient matrix has q[i][j] = e_ij / n_i for i != j and
q[i][i] = 2 e_i / n_i, where e_ij counts edges between blocks i and j
and e_i counts edges inside block i.  Its eigenvalues interlace those of
the adjacency matrix, with equality of the largest pair when the
partition is equitable -- which is what reduces the spectral radius of
the clique-join family to the largest root of a cubic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import exactroots
from .graphs import ExtremalParams
from .spectral import _top_pair, full_spectrum

__all__ = [
    "Partition",
    "QuotientMatrix",
    "CubicCoeffs",
    "canonical_three_blocks",
    "is_equitable",
    "quotient_matrix",
    "two_clique_quotient",
    "cubic_coefficients",
    "largest_cubic_root",
    "quotient_spectrum",
    "quotient_perron",
    "lift_block_vector",
    "check_interlacing",
]


@dataclass(frozen=True)
class Partition:
    """Ordered vertex blocks: disjoint, nonempty, covering 0..n-1."""

    blocks: tuple

    def __post_init__(self):
        object.__setattr__(self, "blocks", tuple(tuple(b) for b in self.blocks))

    @property
    def sizes(self):
        return tuple(len(b) for b in self.blocks)

    def validate(self, n):
        seen = set()
        for b in self.blocks:
            if not b:
                raise ValueError("partition block is empty")
            for v in b:
                if not 0 <= v < n:
                    raise ValueError(f"vertex {v} out of range")
                if v in seen:
                    raise ValueError(f"vertex {v} appears in two blocks")
                seen.add(v)
        if len(seen) != n:
            raise ValueError("partition does not cover the vertex set")
        return self


def canonical_three_blocks(p: ExtremalParams):
    """The positional (S, A, B) partition of the canonical clique-join layout."""
    k, a, b = p.block_sizes
    return Partition((tuple(range(k)),
                      tuple(range(k, k + a)),
                      tuple(range(k + a, k + a + b))))


@dataclass(frozen=True)
class QuotientMatrix:
    """Block-averaged edge-count matrix of a partition.

    ``matrix`` holds the real entries; ``edge_counts[i][j]`` keeps the
    exact integer e_ij (e_i on the diagonal), so edge-count symmetry
    n_i q_ij = n_j q_ji can be checked exactly.
    """

    matrix: np.ndarray
    sizes: tuple
    edge_counts: tuple

    @property
    def m(self):
        return len(self.sizes)


def is_equitable(g, p):
    """True iff every vertex of block i has the same neighbour count in block j."""
    p.validate(g.n)
    masks = [sum(1 << v for v in b) for b in p.blocks]
    for block in p.blocks:
        for mj in masks:
            counts = {(g.rows[v] & mj).bit_count() for v in block}
            if len(counts) > 1:
                return False
    return True


def quotient_matrix(g, p):
    """Quotient matrix of a partition; entries are averages, counts exact."""
    p.validate(g.n)
    m = len(p.blocks)
    masks = [sum(1 << v for v in b) for b in p.blocks]
    counts = [[0] * m for _ in range(m)]
    for i, block in enumerate(p.blocks):
        for j in range(m):
            tot = sum((g.rows[v] & masks[j]).bit_count() for v in block)
            counts[i][j] = tot // 2 if i == j else tot  # within-block edges counted twice
    q = np.zeros((m, m))
    for i in range(m):
        ni = len(p.blocks[i])
        for j in range(m):
            q[i, j] = (2 * counts[i][i] if i == j else counts[i][j]) / ni
    return QuotientMatrix(q, tuple(len(b) for b in p.blocks),
                          tuple(tuple(row) for row in counts))


def two_clique_quotient(k, n1, n2):
    """Quotient of a k-clique joined to two disjoint cliques K_n1, K_n2.

    [[k-1, n1, n2], [k, n1-1, 0], [k, 0, n2-1]].  For ExtremalParams p,
    two_clique_quotient(*p.block_sizes) equals
    quotient_matrix(extremal_graph(p), canonical_three_blocks(p))
    entrywise, because that partition is equitable.
    """
    if k < 1 or n1 < 1 or n2 < 1:
        raise ValueError("two_clique_quotient needs k, n1, n2 >= 1")
    q = np.array([[k - 1, n1, n2],
                  [k, n1 - 1, 0],
                  [k, 0, n2 - 1]], dtype=float)
    counts = ((k * (k - 1) // 2, k * n1, k * n2),
              (k * n1, n1 * (n1 - 1) // 2, 0),
              (k * n2, 0, n2 * (n2 - 1) // 2))
    return QuotientMatrix(q, (k, n1, n2), counts)


@dataclass(frozen=True)
class CubicCoeffs:
    """Exact integers (c2, c1, c0) of the monic cubic x^3 + c2 x^2 + c1 x + c0."""

    c2: int
    c1: int
    c0: int

    def as_poly(self):
        return (self.c0, self.c1, self.c2, 1)

    def evaluate(self, x):
        return ((x + self.c2) * x + self.c1) * x + self.c0


def cubic_coefficients(p: ExtremalParams):
    """The closed-form cubic whose largest root is rho of the clique-join graph.

    c2 = 3-n,
    c1 = n*delta - delta^2 - n - k*n + k + k*delta + 2 - 2*delta,
    c0 = k*n*delta + k^2 + n*delta + k^2*delta - k*delta - k^2*n
         - k*delta^2 - 2*delta - delta^2.

    Tested against, not assumed equal to, det(xI - Q) of the three-block
    quotient; a mismatch there would be a finding, not a rounding issue.
    """
    p.validate()
    n, k, d = p.n, p.k, p.delta
    c2 = 3 - n
    c1 = n * d - d * d - n - k * n + k + k * d + 2 - 2 * d
    c0 = (k * n * d + k * k + n * d + k * k * d - k * d
          - k * k * n - k * d * d - 2 * d - d * d)
    return CubicCoeffs(c2, c1, c0)


def largest_cubic_root(c: CubicCoeffs):
    """Largest real root of the cubic, within 1e-12; deterministic.

    The generic certified root of :func:`exactroots.largest_real_root`:
    an integer root is proved largest exactly, otherwise a float seed's
    bracket is certified by Descartes' rule of signs (Sturm bisection
    only if that fails) and refined by exact sign bisection.
    """
    return exactroots.largest_real_root(c.as_poly(), 1e-12)


def _symmetrized(qm: QuotientMatrix):
    """(D^{1/2} Q D^{-1/2}, sqrt of the block sizes) for D = diag(n_i)."""
    d = np.sqrt(np.array(qm.sizes, dtype=float))
    return qm.matrix * (d[:, None] / d[None, :]), d


def quotient_spectrum(qm: QuotientMatrix):
    """All eigenvalues of a quotient matrix, ascending.

    Q is not symmetric, but edge-count symmetry n_i q_ij = n_j q_ji makes
    D^{1/2} Q D^{-1/2} symmetric for D = diag(n_i), so the symmetric
    eigensolver applies after that similarity transform.
    """
    return full_spectrum(_symmetrized(qm)[0])


def quotient_perron(qm: QuotientMatrix):
    """Dominant eigenpair (rho, x) of a nonnegative irreducible quotient.

    The top eigenpair (u positive, unit norm) of the symmetric
    S = D^{1/2} Q D^{-1/2} gives x = D^{-1/2} u with Q x = rho x.  The
    vertex vector lifted from x has unit norm (sum n_i x_i^2 = ||u||^2),
    and its residual on an equitable partition is
    (S u - rho u)_i / sqrt(n_i), no larger than that of u.
    """
    sym, d = _symmetrized(qm)
    rho, u = _top_pair(sym)
    return rho, u / d


def lift_block_vector(p: Partition, x):
    """Extend a per-block vector to a per-vertex vector, constant on blocks."""
    n = sum(p.sizes)
    p.validate(n)
    if len(x) != len(p.blocks):
        raise ValueError(f"len(x) = {len(x)} but the partition has {len(p.blocks)} blocks")
    y = np.empty(n)
    for bi, block in enumerate(p.blocks):
        for v in block:
            y[v] = x[bi]
    return y


def check_interlacing(sub, full):
    """lambda_i(A) >= lambda_i(Q) >= lambda_{i+n-m}(A) for all i, descending, within 1e-9.

    `sub` and `full` are the eigenvalues of Q and A, in any order.
    """
    m, n = len(sub), len(full)
    if m > n:
        raise ValueError(f"quotient spectrum larger than full spectrum ({m} > {n})")
    qs = sorted(sub, reverse=True)
    fs = sorted(full, reverse=True)
    for i in range(m):
        if not (fs[i] + 1e-9 >= qs[i] >= fs[i + n - m] - 1e-9):
            return False
    return True
