"""Equitable partitions, quotient matrices, and the cubic.

A partition's quotient matrix has q[i][j] = e_ij / n_i for i != j and
q[i][i] = 2 e_i / n_i, where e_ij counts edges between blocks i and j
and e_i counts edges inside block i.  Its eigenvalues interlace those of
the adjacency matrix, with equality of the largest pair when the
partition is equitable -- which is what reduces the spectral radius of
the clique-join family to the largest root of a cubic.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import exactroots
from .graphs import ExtremalParams
from .spectral import _quotient_top_pair

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
    "quotient_perron",
    "lift_block_vector",
]


@dataclass(frozen=True)
class Partition:
    """Ordered vertex blocks: disjoint, nonempty, covering 0..n-1.

    The blocks are checked once, here: every vertex an integer in
    range(count), count being the number of listed vertices, and in at
    most one block, no block empty.  So the vertices are exactly
    0..count-1: ``masks`` holds each block as a bitmask and ``cover``
    their union, and :meth:`validate` only compares count with n.  A
    label at or above count is rejected before it is made a bit,
    whatever its size.
    """

    blocks: tuple
    masks: tuple = field(init=False, repr=False, compare=False)
    cover: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        blocks = tuple(tuple(b) for b in self.blocks)
        count = sum(map(len, blocks))
        masks = []
        cover = 0
        for b in blocks:
            if not b:
                raise ValueError("partition block is empty")
            m = 0
            for v in b:
                if not (isinstance(v, int) and 0 <= v < count):
                    raise ValueError(f"vertex {v!r} out of range")
                bit = 1 << v
                if (cover | m) & bit:
                    raise ValueError(f"vertex {v} appears in two blocks")
                m |= bit
            masks.append(m)
            cover |= m
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "masks", tuple(masks))
        object.__setattr__(self, "cover", cover)

    @property
    def sizes(self):
        return tuple(len(b) for b in self.blocks)

    def validate(self, n):
        if self.cover.bit_length() != n:
            raise ValueError(f"partition does not cover the vertex set: "
                             f"{self.cover.bit_length()} vertices, not {n}")
        return self


def canonical_three_blocks(p: ExtremalParams):
    """The positional (S, A, B) partition of the canonical clique-join layout."""
    k, a, b = p.validate().block_sizes
    return Partition((tuple(range(k)),
                      tuple(range(k, k + a)),
                      tuple(range(k + a, k + a + b))))


@dataclass(frozen=True)
class QuotientMatrix:
    """Integer edge counts of a partition, and the matrices derived from them.

    ``edge_counts[i][j]`` is e_ij (e_i on the diagonal), so edge-count
    symmetry n_i q_ij = n_j q_ji holds exactly; ``matrix`` and the
    symmetric form are computed from the counts when asked for.
    """

    sizes: tuple
    edge_counts: tuple

    def _degree_sums(self):
        """C with C_ij = e_ij and C_ii = 2 e_i, i.e. n_i q_ij: symmetric."""
        return [[2 * e if i == j else e for j, e in enumerate(row)]
                for i, row in enumerate(self.edge_counts)]

    @property
    def matrix(self):
        """q_ij = e_ij / n_i off the diagonal, 2 e_i / n_i on it."""
        return np.array([[c / n for c in row]
                         for n, row in zip(self.sizes, self._degree_sums())])


def _block_degrees(g, p):
    """d[i][j] lists the neighbour counts in block j of the vertices of block i."""
    p.validate(g.n)
    return [[[(g.rows[v] & mj).bit_count() for v in b] for mj in p.masks]
            for b in p.blocks]


def is_equitable(g, p):
    """True iff every vertex of block i has the same neighbour count in block j."""
    return all(len(set(counts)) == 1 for d_i in _block_degrees(g, p) for counts in d_i)


def quotient_matrix(g, p):
    """Quotient matrix of a partition, kept as its exact edge counts."""
    counts = []
    for i, d_i in enumerate(_block_degrees(g, p)):
        row = [sum(counts_ij) for counts_ij in d_i]
        row[i] //= 2  # within-block edges are counted from both ends
        counts.append(tuple(row))
    return QuotientMatrix(p.sizes, tuple(counts))


def two_clique_quotient(k, n1, n2):
    """Quotient of a k-clique joined to two disjoint cliques K_n1, K_n2.

    Its matrix is [[k-1, n1, n2], [k, n1-1, 0], [k, 0, n2-1]].  For
    ExtremalParams p, two_clique_quotient(*p.block_sizes) equals
    quotient_matrix(extremal_graph(p), canonical_three_blocks(p)),
    because that partition is equitable.
    """
    if not all(isinstance(m, int) and m >= 1 for m in (k, n1, n2)):
        raise ValueError("two_clique_quotient needs integers k, n1, n2 >= 1")
    return QuotientMatrix((k, n1, n2),
                          ((k * (k - 1) // 2, k * n1, k * n2),
                           (k * n1, n1 * (n1 - 1) // 2, 0),
                           (k * n2, 0, n2 * (n2 - 1) // 2)))


@dataclass(frozen=True)
class CubicCoeffs:
    """Exact integers (c2, c1, c0) of the monic cubic x^3 + c2 x^2 + c1 x + c0."""

    c2: int
    c1: int
    c0: int

    def as_poly(self):
        return (self.c0, self.c1, self.c2, 1)


def cubic_coefficients(p: ExtremalParams):
    """The cubic whose largest root is rho of the clique-join graph.

    With block sizes (k, a, b) = (k, delta-k+1, n-delta-1) and n = k+a+b,
    f(x) = x^3 + (3-n) x^2 + (3-2n+ab) x + (1-n+ab(k+1)).

    Tested against, not assumed equal to, det(xI - Q) of the three-block
    quotient; a mismatch there would be a finding, not a rounding issue.
    """
    k, a, b = p.validate().block_sizes
    n = p.n
    return CubicCoeffs(3 - n, 3 - 2 * n + a * b, 1 - n + a * b * (k + 1))


def largest_cubic_root(c: CubicCoeffs):
    """Largest real root of the cubic, within 1e-12; deterministic.

    The generic certified root of :func:`exactroots.largest_real_root`:
    an integer root is proved largest exactly, otherwise a float seed's
    bracket is certified by one Descartes count (Sturm bisection only if
    that fails) and, if wider than 2^-42, refined by exact sign bisection.
    """
    return exactroots.largest_real_root(c.as_poly())


def quotient_perron(qm: QuotientMatrix):
    """Dominant eigenpair (rho, x) of a nonnegative irreducible quotient.

    The top eigenpair (u positive, unit norm) of the symmetric
    S = D^{1/2} Q D^{-1/2}, built from the symmetric C = DQ of
    :meth:`QuotientMatrix._degree_sums`, gives x = D^{-1/2} u with
    Q x = rho x (``spectral._quotient_top_pair``).  The vertex vector
    lifted from x has unit norm (sum n_i x_i^2 = ||u||^2), and its
    residual on an equitable partition is (S u - rho u)_i / sqrt(n_i), no
    larger than that of u.
    """
    return _quotient_top_pair(qm._degree_sums(), qm.sizes)


def lift_block_vector(p: Partition, x):
    """Extend a per-block vector to a per-vertex vector, constant on blocks."""
    n = sum(p.sizes)
    if len(x) != len(p.blocks):
        raise ValueError(f"len(x) = {len(x)} but the partition has {len(p.blocks)} blocks")
    y = np.empty(n)
    for bi, block in enumerate(p.blocks):
        for v in block:
            y[v] = x[bi]
    return y

