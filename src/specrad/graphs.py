"""Immutable simple graphs over dense bitset adjacency rows.

Vertices are 0..n-1.  A graph stores one Python integer per vertex whose
bit j is set iff ij is an edge.  Integers double as vertex sets, so the
component searches and cut checks of the connectivity layer work on masks
without building per-vertex containers, and a graph is hashable so it can
be deduplicated directly.

The module also provides the constructor of the clique-join family
studied here (``extremal_graph``) and the graph6 codec.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "Graph",
    "ExtremalParams",
    "complete",
    "cycle",
    "join",
    "disjoint_union",
    "extremal_graph",
    "min_degree",
    "is_connected",
    "from_edges",
    "g6_encode",
    "g6_decode",
]


@dataclass(frozen=True, slots=True)
class Graph:
    """Simple undirected graph; immutable, hashable, labeled.

    ``rows[i]`` is the neighbour bitmask of vertex i.  ``Graph(n, rows)``
    stores the rows as a tuple and checks their count and that each row
    is an integer subset of range(n): a non-integer row, a negative row or
    a bit at or above n is rejected here, so no query masks a row.  Loops
    and symmetry are left to :meth:`validate`: exact-algebra tests pass
    asymmetric and looped 0/1 rows through the constructor on purpose.
    The module constructors (:func:`from_edges` and the families) and
    :func:`g6_decode` build valid graphs; :meth:`validate` checks one.
    """

    n: int
    rows: tuple

    def __post_init__(self):
        object.__setattr__(self, "rows", tuple(self.rows))
        if not isinstance(self.n, int):
            raise ValueError(f"vertex count {self.n!r} is not an integer")
        if self.n < 1:
            raise ValueError("graph needs at least one vertex")
        if len(self.rows) != self.n:
            raise ValueError("adjacency rows do not match vertex count")
        try:
            for r in self.rows:
                if r >> self.n:  # a bit at or above n; a negative row shifts to -1
                    # an earlier equal row would have raised, so index() finds this one
                    raise ValueError(f"row {self.rows.index(r)} references vertices >= {self.n}")
        except TypeError:  # r is the row that has no >>; `is` skips equal int rows
            i = next(i for i, s in enumerate(self.rows) if s is r)
            raise ValueError(f"row {i} ({r!r}) is not an integer") from None

    def degrees(self):
        """Degree of every vertex, in vertex order."""
        # a list, not a generator or map(int.bit_count, ...) (as in edge_count
        # and min_degree): on CPython 3.11 a generator expression here made a
        # long benchmark process's peak RSS grow ~5 KB per ties pass, and the
        # map form in all three read ties peak RSS 37.6 -> 39.0 MB (3 of 3
        # pairs, 2-vCPU Xeon)
        return tuple([r.bit_count() for r in self.rows])

    @property
    def edge_count(self):
        return sum([r.bit_count() for r in self.rows]) // 2

    def edges(self):
        """Edges as (i, j) pairs with i < j, lexicographic."""
        for i in range(self.n):
            m = self.rows[i] >> (i + 1) << (i + 1)
            while m:
                b = m & -m
                yield (i, b.bit_length() - 1)
                m ^= b

    def adjacency_matrix(self):
        """Dense adjacency matrix as a numpy array.

        numpy is imported here, not at module level, so the graph and
        connectivity layers import without it.
        """
        import numpy as np

        n = self.n
        nbytes = (n + 7) // 8
        raw = b"".join([r.to_bytes(nbytes, "little") for r in self.rows])
        bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8).reshape(n, nbytes),
                             axis=1, count=n, bitorder="little")
        return bits.astype(float)

    def validate(self):
        """Check that the graph is simple: no loops, symmetric rows.

        Raises ValueError on a violation.  The rows' range was checked
        when the graph was built.
        """
        for i, r in enumerate(self.rows):
            if r >> i & 1:
                raise ValueError(f"self-loop at vertex {i}")
        for i in range(self.n):
            ri = self.rows[i]
            for j in range(i + 1, self.n):
                if (ri >> j & 1) != (self.rows[j] >> i & 1):
                    raise ValueError(f"asymmetric adjacency at ({i},{j})")
        return self


def from_edges(n, edges):
    """Graph on n vertices from an iterable of (u, v) pairs."""
    rows = [0] * n
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u},{v}) out of range for n={n}")
        if u == v:
            raise ValueError(f"self-loop ({u},{v}) not allowed")
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return Graph(n, rows)


# -- families ---------------------------------------------------------


def complete(n):
    """Complete graph K_n."""
    if n < 1:
        raise ValueError("empty graph: complete() needs n >= 1")
    full = (1 << n) - 1
    return Graph(n, [full ^ (1 << i) for i in range(n)])


def cycle(n):
    """Cycle C_n (n >= 3)."""
    if n < 3:
        raise ValueError("cycle needs n >= 3")
    return from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def join(g, h):
    """Join g + h: disjoint union plus all edges between the two sides."""
    n, m = g.n, h.n
    hi_mask = ((1 << m) - 1) << n
    lo_mask = (1 << n) - 1
    rows = [r | hi_mask for r in g.rows]
    rows += [(r << n) | lo_mask for r in h.rows]
    return Graph(n + m, rows)


def disjoint_union(g, h):
    """Disjoint union of g and h; h's vertices are relabeled to start at g.n."""
    n = g.n
    rows = list(g.rows) + [r << n for r in h.rows]
    return Graph(n + h.n, rows)


@dataclass(frozen=True, slots=True)
class ExtremalParams:
    """Parameters (n, k, delta) of the clique-join family.

    The graph is K_k + (K_{delta-k+1} u K_{n-delta-1}): a k-clique S
    joined to two disjoint cliques A and B.  Hard validity requires both
    cliques nonempty, i.e. 1 <= k <= delta <= n-2.  Whether the minimum
    degree actually equals delta additionally needs n >= 2*delta+2-k
    (else the B-clique degree n-delta-2+k drops below delta); that is
    reported by :attr:`realizes_min_degree`, not enforced.
    """

    n: int
    k: int
    delta: int

    def validate(self):
        if not all(isinstance(x, int) for x in (self.n, self.k, self.delta)):
            raise ValueError(f"invalid params {self}: n, k and delta must be integers")
        if self.k < 1:
            raise ValueError(f"invalid params {self}: need k >= 1")
        if self.delta < self.k:
            raise ValueError(f"invalid params {self}: need delta >= k")
        if self.n - self.delta - 1 < 1:
            raise ValueError(
                f"invalid params {self}: need n - delta - 1 >= 1 (second clique nonempty)")
        # delta - k + 1 >= 1 is implied by delta >= k
        return self

    @property
    def is_valid(self):
        try:
            self.validate()
        except ValueError:
            return False
        return True

    @property
    def realizes_min_degree(self):
        """True iff the constructed graph has minimum degree exactly delta."""
        return self.n >= 2 * self.delta + 2 - self.k

    @property
    def block_sizes(self):
        """(|S|, |A|, |B|) = (k, delta-k+1, n-delta-1)."""
        return (self.k, self.delta - self.k + 1, self.n - self.delta - 1)


def extremal_graph(p):
    """The graph K_k + (K_{delta-k+1} u K_{n-delta-1}) in canonical layout.

    Vertices 0..k-1 are the join block S, the next delta-k+1 form clique
    A, the last n-delta-1 form clique B.  The positional layout is part
    of the contract: the canonical three-block partition is derived from
    it.  Degrees: S-vertices n-1, A-vertices delta, B-vertices
    n-delta-2+k.  Each row is its block's mask minus the vertex itself:
    all of S u A u B for S, S u A for A, S u B for B.
    """
    k, a, b = p.validate().block_sizes
    n = k + a + b
    s, sa, full = (1 << k) - 1, (1 << (k + a)) - 1, (1 << n) - 1
    masks = [full] * k + [sa] * a + [full ^ sa ^ s] * b
    return Graph(n, [m ^ (1 << i) for i, m in enumerate(masks)])


# -- standard queries --------------------------------------------------


def min_degree(g):
    """Smallest vertex degree."""
    return min([r.bit_count() for r in g.rows])


def _component_mask(rows, avail, start_bit):
    """Bitmask of the component of `start_bit` inside the vertex set `avail`."""
    seen = start_bit
    frontier = start_bit
    while frontier:
        nxt = 0
        m = frontier
        while m:
            b = m & -m
            nxt |= rows[b.bit_length() - 1]
            m ^= b
        frontier = nxt & avail & ~seen
        seen |= frontier
    return seen


def is_connected(g):
    """True iff g has a single connected component (K_1 is connected)."""
    full = (1 << g.n) - 1
    return _component_mask(g.rows, full, 1) == full


def _mask_vertices(mask):
    while mask:
        b = mask & -mask
        yield b.bit_length() - 1
        mask ^= b


# -- graph6 codec -------------------------------------------------------
#
# Standard printable encoding: a size header (n+63 for n <= 62, else
# '~' + 3 bytes of 6 bits each for n <= 258047), then the upper-triangle
# edge bits packed 6 per byte, most significant first, zero-padded, each
# byte offset by 63.  The edge bits run column by column: bit
# j(j-1)/2 + i is the edge (i, j), i < j, so column j is vertex j's
# lower-neighbour mask with vertex 0 first.

# body byte -> its 6 bits; a byte outside 63..126 has no entry
_G6_BITS = {63 + v: format(v, "06b") for v in range(64)}


def g6_encode(g):
    """Encode a graph as graph6 bytes (bit-exact, round-trips with g6_decode)."""
    n = g.n
    bits = "".join([format(g.rows[j] & ((1 << j) - 1), f"0{j}b")[::-1]
                    for j in range(1, n)])
    bits += "0" * (-len(bits) % 6)
    body = bytes([int(bits[t : t + 6], 2) + 63 for t in range(0, len(bits), 6)])
    return _g6_header(n) + body


def _g6_header(n):
    if n <= 62:
        return bytes([n + 63])
    if n <= 258047:
        return bytes([126, (n >> 12) + 63, (n >> 6 & 63) + 63, (n & 63) + 63])
    raise ValueError(f"graph6 orders above 258047 not supported (n={n})")


def g6_decode(data):
    """Decode graph6 bytes (or str) back to a Graph.

    Trailing newlines are dropped.  Raises ValueError on an empty input, a
    1-byte size outside 64..125, the 8-byte size header ('~~'), a 4-byte
    header that is truncated, has a size byte outside 63..126 or gives an
    order below 63 (order 0, or one the 1-byte header writes), an
    edge-byte count that does not match the order, an edge byte outside
    63..126, and nonzero padding bits.  So every accepted input is the
    g6_encode of the graph it decodes to, up to trailing newlines.
    """
    if isinstance(data, str):
        data = data.encode("ascii")
    data = data.rstrip(b"\n")
    if not data:
        raise ValueError("malformed graph6 header: empty input")
    if data[0] == 126:
        if len(data) >= 2 and data[1] == 126:
            raise ValueError("malformed graph6 header: 8-byte sizes not supported")
        if len(data) < 4:
            raise ValueError("malformed graph6 header: truncated extended size")
        parts = [data[i] - 63 for i in (1, 2, 3)]
        if any(p < 0 or p > 63 for p in parts):
            raise ValueError("malformed graph6 header: size byte out of range")
        n = parts[0] << 12 | parts[1] << 6 | parts[2]
        if n < 63:
            raise ValueError(f"malformed graph6 header: 4-byte size {n} below 63")
        body = data[4:]
    else:
        n = data[0] - 63
        if n < 1 or n > 62:
            raise ValueError(f"malformed graph6 header: byte {data[0]}")
        body = data[1:]
    nbits = n * (n - 1) // 2
    want = (nbits + 5) // 6
    if len(body) != want:
        raise ValueError(f"graph6 length mismatch: {len(body)} edge bytes, expected {want}")
    try:
        bits = "".join(map(_G6_BITS.__getitem__, body))
    except KeyError as e:
        raise ValueError(f"graph6 edge byte {e.args[0]} out of range") from None
    if "1" in bits[nbits:]:
        raise ValueError("graph6 trailing padding bits nonzero")
    # reversed, bit j(j-1)/2 + i of one integer is the edge (i, j): each
    # column is the next j bits, and its edges give the rows' upper halves
    m = int(bits[:nbits][::-1] or "0", 2)
    rows = [0] * n
    for j in range(1, n):
        low = m & ((1 << j) - 1)
        m >>= j
        rows[j] = low
        bj = 1 << j
        while low:
            b = low & -low
            rows[b.bit_length() - 1] |= bj
            low ^= b
    return Graph(n, rows)
