"""Immutable simple graphs over dense bitset adjacency rows.

Vertices are 0..n-1.  A graph stores one Python integer per vertex whose
bit j is set iff ij is an edge.  Integers double as vertex sets, which
keeps the enumeration / connectivity inner loops allocation-free, and a
graph is hashable so it can be deduplicated directly.

The module also provides the constructors for the clique-join families
studied here (``extremal_graph``, ``shiu_graph``) and the graph6 codec.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Graph",
    "ExtremalParams",
    "edge_slots",
    "complete",
    "cycle",
    "path",
    "star",
    "join",
    "disjoint_union",
    "extremal_graph",
    "shiu_graph",
    "min_degree",
    "is_connected",
    "components",
    "from_edges",
    "g6_encode",
    "g6_decode",
]


def edge_slots(n):
    """Vertex pairs (i, j), i < j, in upper-triangle column-major order.

    Slot t of a packed edge mask refers to edge_slots(n)[t].  The same
    order is used by the graph6 codec and by the census enumeration, so
    masks and graph6 edge bits agree bit for bit.
    """
    return [(i, j) for j in range(1, n) for i in range(j)]


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph; immutable, hashable, labeled.

    ``rows[i]`` is the neighbour bitmask of vertex i.  ``Graph(n, rows)``
    stores the rows as a tuple and checks only their count: exact-algebra
    tests pass asymmetric and looped 0/1 rows through it on purpose.
    The module constructors (:func:`from_edges` and the families) and
    :func:`g6_decode` build valid graphs; :meth:`validate` checks one.
    """

    n: int
    rows: tuple

    def __post_init__(self):
        object.__setattr__(self, "rows", tuple(self.rows))
        if self.n < 1:
            raise ValueError("graph needs at least one vertex")
        if len(self.rows) != self.n:
            raise ValueError("adjacency rows do not match vertex count")

    # -- basic queries ------------------------------------------------

    def has_edge(self, i, j):
        self._check_vertex(i)
        self._check_vertex(j)
        return bool(self.rows[i] >> j & 1)

    def degree(self, v):
        self._check_vertex(v)
        return self.rows[v].bit_count()

    def degrees(self):
        """Degree of every vertex, in vertex order."""
        # a list, not a generator: on CPython 3.11 a generator expression here
        # made a long benchmark process's peak RSS grow ~5 KB per ties pass
        return tuple([r.bit_count() for r in self.rows])

    @property
    def edge_count(self):
        return sum(r.bit_count() for r in self.rows) // 2

    def edges(self):
        """Edges as (i, j) pairs with i < j, lexicographic."""
        for i in range(self.n):
            m = self.rows[i] >> (i + 1) << (i + 1)
            while m:
                b = m & -m
                yield (i, b.bit_length() - 1)
                m ^= b

    def neighbors(self, v):
        self._check_vertex(v)
        m = self.rows[v]
        out = []
        while m:
            b = m & -m
            out.append(b.bit_length() - 1)
            m ^= b
        return out

    def is_complete(self):
        return all(r.bit_count() == self.n - 1 for r in self.rows)

    def adjacency_matrix(self):
        """Dense adjacency matrix as a numpy array."""
        nbytes = (self.n + 7) // 8
        raw = b"".join(r.to_bytes(nbytes, "little") for r in self.rows)
        bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8).reshape(self.n, nbytes),
                             axis=1, bitorder="little")[:, : self.n]
        return bits.astype(float)

    def _check_vertex(self, v):
        if not 0 <= v < self.n:
            raise ValueError(f"vertex {v} out of range 0..{self.n - 1}")

    def validate(self):
        """Check the structural invariants; raises on violation."""
        full = (1 << self.n) - 1
        for i, r in enumerate(self.rows):
            if r & ~full:
                raise ValueError(f"row {i} references vertices >= {self.n}")
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


def path(n):
    """Path P_n on n vertices."""
    if n < 1:
        raise ValueError("path needs n >= 1")
    return from_edges(n, [(i, i + 1) for i in range(n - 1)])


def star(leaves):
    """Star K_{1,leaves}: vertex 0 joined to `leaves` pendant vertices."""
    if leaves < 0:
        raise ValueError("leaves must be >= 0")
    return from_edges(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


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


@dataclass(frozen=True)
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
    n-delta-2+k.
    """
    k, a, b = p.validate().block_sizes
    return join(complete(k), disjoint_union(complete(a), complete(b)))


def shiu_graph(n, k):
    """K_{n-1} with k of its vertices joined to one extra vertex.

    Equals extremal_graph with delta = k, i.e. K_k + (K_1 u K_{n-k-1});
    for k = n-1 the second clique is empty and the graph is K_n.
    """
    if not 1 <= k <= n - 1:
        raise ValueError(f"shiu_graph needs 1 <= k <= n-1, got (n={n}, k={k})")
    if k == n - 1:
        return complete(n)
    return extremal_graph(ExtremalParams(n, k, k))


# -- standard queries --------------------------------------------------


def min_degree(g):
    """Smallest vertex degree."""
    return min(r.bit_count() for r in g.rows)


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


def components(g):
    """Vertex sets of the connected components, ordered by smallest vertex."""
    return _components_within(g.rows, (1 << g.n) - 1)


def _components_within(rows, remaining):
    """Components of the subgraph induced by the vertex mask `remaining`."""
    out = []
    while remaining:
        comp = _component_mask(rows, remaining, remaining & -remaining)
        out.append(frozenset(_mask_vertices(comp)))
        remaining &= ~comp
    return out


def _mask_vertices(mask):
    while mask:
        b = mask & -mask
        yield b.bit_length() - 1
        mask ^= b


# -- graph6 codec -------------------------------------------------------
#
# Standard printable encoding: a size header (n+63 for n <= 62, else
# '~' + 3 bytes of 6 bits each for n <= 258047), then the upper-triangle
# edge bits in column-major order packed 6 per byte, most significant
# first, zero-padded, each byte offset by 63.


def g6_encode(g):
    """Encode a graph as graph6 bytes (bit-exact, round-trips with g6_decode)."""
    n = g.n
    header = _g6_header(n)
    bits = []
    for i, j in edge_slots(n):
        bits.append(g.rows[i] >> j & 1)
    body = bytearray()
    for t in range(0, len(bits), 6):
        group = bits[t : t + 6]
        val = 0
        for b in group:
            val = val << 1 | b
        val <<= 6 - len(group)
        body.append(val + 63)
    return header + bytes(body)


def _g6_header(n):
    if n <= 62:
        return bytes([n + 63])
    if n <= 258047:
        return bytes([126, (n >> 12) + 63, (n >> 6 & 63) + 63, (n & 63) + 63])
    raise ValueError(f"graph6 orders above 258047 not supported (n={n})")


def g6_decode(data):
    """Decode graph6 bytes (or str) back to a Graph."""
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
    bits = []
    for byte in body:
        val = byte - 63
        if val < 0 or val > 63:
            raise ValueError(f"graph6 edge byte {byte} out of range")
        bits.extend(val >> s & 1 for s in range(5, -1, -1))
    if any(bits[nbits:]):
        raise ValueError("graph6 trailing padding bits nonzero")
    rows = [0] * n
    for t, (i, j) in enumerate(edge_slots(n)):
        if bits[t]:
            rows[i] |= 1 << j
            rows[j] |= 1 << i
    return Graph(n, rows)

