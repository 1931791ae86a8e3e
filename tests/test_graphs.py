"""Graph construction, family constructors, and the graph6 codec.

g6_decode is checked against a per-bit decoder kept here as the
reference, and against networkx's graph6 codec.
"""

import random

import networkx as nx
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import path, random_graph, star
from specrad.graphs import (
    ExtremalParams,
    Graph,
    _g6_header,
    complete,
    cycle,
    disjoint_union,
    extremal_graph,
    from_edges,
    g6_decode,
    g6_encode,
    is_connected,
    join,
    min_degree,
)


def brute_force_degrees(g):
    # independent of bit_count: row sums of the dense adjacency matrix
    return tuple(int(d) for d in g.adjacency_matrix().sum(axis=1))


# -- reference: per-bit graph6 decoder ------------------------------------

def g6_decode_reference(data):
    """graph6 bytes to a Graph one bit at a time, over an explicit slot list.

    Slot t is the t-th pair (i, j), i < j, of the upper triangle taken
    column by column; its bit is bit 5 - t % 6 of body byte t // 6.
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
    slots = [(i, j) for j in range(1, n) for i in range(j)]
    want = (len(slots) + 5) // 6
    if len(body) != want:
        raise ValueError(f"graph6 length mismatch: {len(body)} edge bytes, expected {want}")
    bits = []
    for byte in body:
        val = byte - 63
        if val < 0 or val > 63:
            raise ValueError(f"graph6 edge byte {byte} out of range")
        bits.extend(val >> s & 1 for s in range(5, -1, -1))
    if any(bits[len(slots):]):
        raise ValueError("graph6 trailing padding bits nonzero")
    rows = [0] * n
    for t, (i, j) in enumerate(slots):
        if bits[t]:
            rows[i] |= 1 << j
            rows[j] |= 1 << i
    return Graph(n, rows)


class TestComplete:
    def test_single_vertex(self):
        g = complete(1)
        assert g.n == 1 and g.edge_count == 0

    def test_k4(self):
        g = complete(4)
        assert g.edge_count == 6
        assert g.degrees() == (3, 3, 3, 3)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            complete(0)

    def test_cycle_rejects_two_vertices(self):
        with pytest.raises(ValueError, match="cycle needs n >= 3"):
            cycle(2)


class TestJoinAndUnion:
    def test_join_of_singletons_is_edge(self):
        g = join(complete(1), complete(1))
        assert g.n == 2 and g.edge_count == 1

    def test_join_of_completes_is_complete(self):
        g = join(complete(2), complete(3))
        assert g == complete(5)

    def test_union_isolated(self):
        g = disjoint_union(complete(1), complete(1))
        assert g.n == 2 and g.edge_count == 0 and not is_connected(g)

    def test_union_counts(self):
        g = disjoint_union(complete(2), complete(3))
        assert g.n == 5 and g.edge_count == 4
        assert not is_connected(g)

    def test_union_min_degree(self):
        # K_{d-k+1} u K_{n-d-1} has min degree d-k when the first clique
        # is no bigger than the second
        n, k, d = 9, 2, 4
        g = disjoint_union(complete(d - k + 1), complete(n - d - 1))
        assert min_degree(g) == d - k

    def test_join_edge_count_random(self):
        rng = random.Random(7)
        for _ in range(50):
            g = random_graph(rng, rng.randint(1, 10))
            h = random_graph(rng, rng.randint(1, 10))
            j = join(g, h)
            assert j.edge_count == g.edge_count + h.edge_count + g.n * h.n
            j.validate()


class TestExtremalGraph:
    def test_paw(self):
        g = extremal_graph(ExtremalParams(4, 1, 1))
        # K_1 joined to (K_1 u K_2): triangle {0,2,3} plus pendant 1 on 0
        assert g.edge_count == 4
        assert sorted(g.degrees()) == [1, 2, 2, 3]
        assert g == from_edges(4, [(0, 1), (0, 2), (0, 3), (2, 3)])

    def test_7_2_3(self):
        g = extremal_graph(ExtremalParams(7, 2, 3))
        assert g.degrees() == (6, 6, 3, 3, 4, 4, 4)
        assert min_degree(g) == 3

    def test_degree_multiset(self):
        for n in range(4, 11):
            for k in range(1, n - 1):
                for d in range(k, n - 1):
                    p = ExtremalParams(n, k, d)
                    g = extremal_graph(p)
                    g.validate()
                    want = [n - 1] * k + [d] * (d - k + 1) + [n - d - 2 + k] * (n - d - 1)
                    assert list(g.degrees()) == want
                    assert brute_force_degrees(g) == g.degrees()
                    if p.realizes_min_degree:
                        assert min_degree(g) == d

    def test_positional_layout(self):
        # S sees every other vertex; A and B are cliques that see S only
        for n in range(3, 13):
            for k in range(1, n - 1):
                for d in range(k, n - 1):
                    p = ExtremalParams(n, k, d)
                    s, a, _ = p.block_sizes
                    S, A = set(range(s)), set(range(s, s + a))
                    B = set(range(s + a, n))
                    g = extremal_graph(p)
                    for v in range(n):
                        want = set(range(n)) if v in S else S | (A if v in A else B)
                        assert {u for u in range(n) if g.rows[v] >> u & 1} == want - {v}, (p, v)

    def test_both_cliques_trivial(self):
        # n = k+2, delta = k: K_{k+2} minus one edge
        for k in (1, 2, 3):
            g = extremal_graph(ExtremalParams(k + 2, k, k))
            assert g.edge_count == (k + 2) * (k + 1) // 2 - 1
            assert not g.rows[k] >> (k + 1) & 1

    def test_invalid_params_messages(self):
        with pytest.raises(ValueError, match="n - delta - 1"):
            extremal_graph(ExtremalParams(5, 4, 4))
        with pytest.raises(ValueError, match="delta >= k"):
            extremal_graph(ExtremalParams(6, 3, 2))
        with pytest.raises(ValueError, match="k >= 1"):
            extremal_graph(ExtremalParams(6, 0, 2))

    def test_is_valid(self):
        for p in (ExtremalParams(7, 2, 3), ExtremalParams(4, 1, 1), ExtremalParams(3, 1, 1),
                  ExtremalParams(7, 1, 4)):  # valid, though delta is not realized
            assert p.is_valid
        for p in (ExtremalParams(5, 4, 4), ExtremalParams(6, 3, 2), ExtremalParams(6, 0, 2),
                  ExtremalParams(2, 1, 1)):
            assert not p.is_valid

    def test_non_integer_params_rejected(self):
        for p in (ExtremalParams(7.5, 2, 3), ExtremalParams(7, 2.0, 3),
                  ExtremalParams(7, 2, "3")):
            assert not p.is_valid
            with pytest.raises(ValueError, match="must be integers"):
                extremal_graph(p)

    def test_realizes_flag(self):
        assert ExtremalParams(7, 2, 3).realizes_min_degree
        assert not ExtremalParams(7, 1, 4).realizes_min_degree  # B-degree 2 < 4

    def test_matches_join_of_cliques(self):
        # the rows come straight from the block masks; the reference builds
        # K_k + (K_a u K_b) from the family constructors
        count = 0
        for n in range(3, 40):
            for k in range(1, n - 1):
                for d in range(k, n - 1):
                    p = ExtremalParams(n, k, d)
                    _, a, b = p.block_sizes
                    assert extremal_graph(p) == join(complete(k),
                                                     disjoint_union(complete(a), complete(b))), p
                    count += 1
        assert count == 9139


class TestShiuGraph:
    def test_matches_extremal_at_delta_k(self):
        # K_k^n of Shiu, Chan and Chang: K_{n-1} with k of its vertices (S)
        # joined to one more vertex, which is the delta = k clique join
        for n in range(4, 11):
            for k in range(1, n - 1):
                clique = [v for v in range(n) if v != k]  # S = 0..k-1 and B
                edges = [(u, v) for u in clique for v in clique if u < v]
                edges += [(k, s) for s in range(k)]
                assert from_edges(n, edges) == extremal_graph(ExtremalParams(n, k, k))


class TestGraph:
    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError, match="at least one vertex"):
            Graph(0, ())
        with pytest.raises(ValueError, match="not an integer"):
            Graph(2.0, (2, 1))
        with pytest.raises(ValueError, match="rows do not match vertex count"):
            Graph(2, (1,))
        for rows, bad in (([2.0, 1], r"row 0 \(2\.0\)"), (["2", 1], r"row 0 \('2'\)"),
                          ([2, 1, None], r"row 2 \(None\)")):
            with pytest.raises(ValueError, match=bad + " is not an integer"):
                Graph(len(rows), rows)
        # the row named is the one that failed, not an earlier equal int row
        with pytest.raises(ValueError, match=r"row 1 \(2\.0\)"):
            Graph(3, [2, 2.0, 1])

    def test_list_rows_are_stored_as_tuple(self):
        g, h = Graph(2, [2, 1]), Graph(2, (2, 1))
        assert g == h and hash(g) == hash(h) and g.rows == (2, 1)

    def test_slots_keep_content_equality(self):
        # slotted: no per-instance __dict__, yet hashed and compared by content
        g, h = cycle(5), from_edges(5, [(0, 4), (3, 4), (2, 3), (1, 2), (0, 1)])
        assert g is not h and g == h and hash(g) == hash(h)
        assert g != cycle(6) and len({g, h, cycle(6)}) == 2
        p = ExtremalParams(7, 2, 3)
        assert p == ExtremalParams(7, 2, 3) and hash(p) == hash(ExtremalParams(7, 2, 3))
        for obj in (g, p):
            assert not hasattr(obj, "__dict__")
            with pytest.raises(AttributeError):
                obj.n = 4


class TestQueries:
    def test_min_degree_complete(self):
        assert min_degree(complete(5)) == 4

    def test_disconnected_union(self):
        assert not is_connected(disjoint_union(complete(2), complete(2)))

    def test_connected_small(self):
        assert is_connected(complete(1))
        assert is_connected(path(6))
        assert is_connected(cycle(5))
        assert is_connected(star(4))
        assert not is_connected(disjoint_union(path(1), path(1)))

    def test_edges_iterator(self):
        g = from_edges(5, [(0, 3), (1, 2), (3, 4)])
        assert sorted(g.edges()) == [(0, 3), (1, 2), (3, 4)]

    def test_no_graph_holds_bits_at_or_above_n(self):
        # row 0 = 514 = 0b1000000010: the edge 01 and a stray bit 9; no query
        # masks a row, so the graph is rejected when built
        with pytest.raises(ValueError, match="row 0 references vertices >= 2"):
            Graph(2, [514, 1])
        g = Graph(2, [2, 1])
        assert g.degrees() == (1, 1) and min_degree(g) == 1
        assert g.edge_count == 1
        assert list(g.edges()) == [(0, 1)]
        assert g.adjacency_matrix().tolist() == [[0.0, 1.0], [1.0, 0.0]]

    def test_validate_catches_asymmetry(self):
        bad = Graph(3, (0b010, 0b000, 0b000))
        with pytest.raises(ValueError, match="asymmetric"):
            bad.validate()

    def test_validate_catches_stray_bits(self):
        # the rows' range is checked when the graph is built: the path 0-1-2
        # with a stray bit 3 on rows 0 and 2 (min_degree and the connectivity
        # layer would read it as K_3), a negative row, and bits 64 and 70 on a
        # looped row 1, which gives ValueError, not MemoryError or OverflowError
        for n, rows, i in [(2, (0b100, 0), 0), (3, (2 | 8, 5, 2 | 8), 0), (2, (-1, 1), 0),
                           (2, (1, 1 << 64), 1), (2, (0, 1 << 70 | 2), 1)]:
            with pytest.raises(ValueError, match=f"row {i} references vertices >= {n}"):
                Graph(n, rows)
        with pytest.raises(ValueError, match="self-loop at vertex 0"):
            Graph(2, (0b1, 0)).validate()

    def test_from_edges_rejects_bad_edges(self):
        with pytest.raises(ValueError, match=r"edge \(0,3\) out of range for n=3"):
            from_edges(3, [(0, 3)])
        with pytest.raises(ValueError, match=r"self-loop \(1,1\) not allowed"):
            from_edges(3, [(1, 1)])


class TestGraph6:
    def test_k3_bytes(self):
        assert g6_encode(complete(3)) == b"Bw"
        assert g6_decode(b"Bw") == complete(3)

    def test_single_vertex(self):
        assert g6_encode(complete(1)) == b"@"

    def test_round_trip_order5_exhaustive(self):
        slots = [(i, j) for j in range(1, 5) for i in range(j)]
        for mask in range(1 << 10):
            g = from_edges(5, [slots[t] for t in range(10) if mask >> t & 1])
            assert g6_decode(g6_encode(g)) == g

    def test_round_trip_random_orders(self):
        rng = random.Random(11)
        for n in (1, 2, 6, 13, 30, 62):
            g = random_graph(rng, n, 0.4)
            assert g6_decode(g6_encode(g)) == g

    def test_extended_header(self):
        g = path(80)
        enc = g6_encode(g)
        assert enc[0] == 126
        assert g6_decode(enc) == g

    def test_malformed_inputs(self):
        with pytest.raises(ValueError, match="header"):
            g6_decode(b"")
        with pytest.raises(ValueError, match="length mismatch"):
            g6_decode(b"D")          # order 5 with no edge bytes
        with pytest.raises(ValueError, match="padding"):
            g6_decode(bytes([63 + 2, 63 + 1]))  # order 2: lone edge bit padded wrong
        with pytest.raises(ValueError, match="8-byte"):
            g6_decode(b"~~AAAAAA")
        with pytest.raises(ValueError, match="header: byte 63"):
            g6_decode(b"?")          # order 0
        with pytest.raises(ValueError, match="header: byte 127"):
            g6_decode(bytes([127]))  # order 64 needs the 4-byte header
        with pytest.raises(ValueError, match="truncated extended size"):
            g6_decode(b"~??")
        for size in (b"~?>?", b"~??\x7f"):
            with pytest.raises(ValueError, match="size byte out of range"):
                g6_decode(size)
        with pytest.raises(ValueError, match="header: 4-byte size 0 below 63"):
            g6_decode(b"~???")       # order 0 in the 4-byte header
        with pytest.raises(ValueError, match="header: 4-byte size 1 below 63"):
            g6_decode(b"~??@")       # K_1, whose graph6 is b"@"
        with pytest.raises(ValueError, match="header: 4-byte size 62 below 63"):
            g6_decode(b"~??}" + g6_encode(path(62))[1:])
        enc = g6_encode(path(80))
        for bad in (enc[:-1], enc + b"?"):
            with pytest.raises(ValueError, match="length mismatch"):
                g6_decode(bad)
        for byte in (62, 127):
            with pytest.raises(ValueError, match=f"edge byte {byte} out of range"):
                g6_decode(bytes([63 + 3, byte]))  # order 3: one edge byte

    def test_header_rejects_order_above_258047(self):
        # the header alone: g6_encode would build the whole body first
        with pytest.raises(ValueError, match=r"orders above 258047 not supported \(n=258048\)"):
            _g6_header(258048)

    def test_accepts_str_and_newline(self):
        assert g6_decode("Bw\n") == complete(3)

    def test_round_trip_every_order_to_100(self):
        # orders 63 and up take the 4-byte header
        rng = random.Random(12)
        for n in range(1, 101):
            g = random_graph(rng, n, 0.3)
            enc = g6_encode(g)
            assert (enc[0] == 126) == (n >= 63)
            assert g6_decode(enc).validate() == g


@st.composite
def graphs(draw, max_n=100):
    """n vertices and up to 3n edges, each (i, j) with j != i."""
    n = draw(st.integers(1, max_n))
    if n == 1:
        return from_edges(1, [])
    ends = st.tuples(st.integers(0, n - 1), st.integers(1, n - 1))
    edges = draw(st.lists(ends, max_size=3 * n))
    return from_edges(n, [(i, (i + j) % n) for i, j in edges])


@st.composite
def extremal_params(draw, max_n=40):
    n = draw(st.integers(3, max_n))
    k = draw(st.integers(1, n - 2))
    return ExtremalParams(n, k, draw(st.integers(k, n - 2)))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(graphs(), graphs(max_n=20), extremal_params())
@example(path(62), path(63), ExtremalParams(3, 1, 1))
def test_constructors_build_valid_graphs(g, h, p):
    for built in (g, h, join(g, h), join(h, g), disjoint_union(g, h), disjoint_union(h, g),
                  extremal_graph(p), g6_decode(g6_encode(g))):
        built.validate()
    assert g6_decode(g6_encode(g)) == g


@settings(max_examples=100, deadline=None, derandomize=True)
@given(graphs())
@example(complete(63))
def test_g6_codec_agrees_with_networkx(g):
    nxg = nx.Graph()
    nxg.add_nodes_from(range(g.n))
    nxg.add_edges_from(g.edges())
    enc = g6_encode(g)
    assert g6_decode(enc) == g6_decode_reference(enc) == g
    back = nx.from_graph6_bytes(enc)
    assert from_edges(back.number_of_nodes(), back.edges()) == g
    assert g6_decode(nx.to_graph6_bytes(nxg, header=False)) == g


def _edge_bytes(draw, n):
    """An edge-byte body for order n, mostly of the right length and in range."""
    want = (n * (n - 1) // 2 + 5) // 6
    size = draw(st.one_of(st.just(want), st.integers(0, want + 2)))
    body = draw(st.binary(min_size=size, max_size=size))
    if draw(st.booleans()):
        body = body.translate(bytes([63 + b % 64 for b in range(256)]))
    return body


@st.composite
def short_header_bytes(draw):
    """A 1-byte size header and an edge-byte body, each mostly well formed."""
    head = draw(st.one_of(st.integers(64, 125), st.integers(0, 255).filter(lambda b: b != 126)))
    return bytes([head]) + _edge_bytes(draw, head - 63)


@st.composite
def long_header_bytes(draw):
    """A 4-byte size header for an order up to 80, most of them below 63
    (the 1-byte header's range), and an edge-byte body."""
    n = draw(st.integers(0, 80))
    head = bytes([126, (n >> 12) + 63, (n >> 6 & 63) + 63, (n & 63) + 63])
    return head + _edge_bytes(draw, n)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.one_of(short_header_bytes(), long_header_bytes()))
@example(b"Bw")
@example(b"Bx")      # order 3, padding bit set
@example(b"A_\n")
@example(b"~??@")    # K_1 under the 4-byte header
@example(b"~???")    # order 0 under the 4-byte header
def test_g6_decode_rejects_or_round_trips(data):
    try:
        g = g6_decode(data)
    except ValueError:
        with pytest.raises(ValueError):
            g6_decode_reference(data)
        return
    assert g.validate() == g6_decode_reference(data)
    assert g6_encode(g) == data.rstrip(b"\n")
