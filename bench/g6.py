"""A small graph6 writer and relabeler for orders below 63, independent of specrad.

The benchmark relabels every census graph and every ties pair before each
pass, so no two passes hand the program the same labeled graph: a cache keyed
on graph content cannot hit across passes when it would not hit in one.
"""

from __future__ import annotations

import random


def encode(n, edges):
    """graph6 text of a simple graph on 0..n-1 (n <= 62)."""
    bits = [0] * (n * (n - 1) // 2)
    for u, v in edges:
        i, j = min(u, v), max(u, v)
        bits[j * (j - 1) // 2 + i] = 1
    bits += [0] * (-len(bits) % 6)
    body = (63 + int("".join(map(str, bits[t:t + 6])), 2) for t in range(0, len(bits), 6))
    return chr(n + 63) + "".join(map(chr, body))


def decode(text):
    """(n, edges) of graph6 text written by :func:`encode`."""
    n = ord(text[0]) - 63
    bits = "".join(format(ord(c) - 63, "06b") for c in text[1:])
    slots = ((i, j) for j in range(1, n) for i in range(j))
    return n, [slot for slot, b in zip(slots, bits) if b == "1"]


def relabel(rng, n, edges):
    perm = list(range(n))
    rng.shuffle(perm)
    return [(perm[u], perm[v]) for u, v in edges]


def relabel_text(rng, text):
    n, edges = decode(text)
    return encode(n, relabel(rng, n, edges))


def pass_inputs(workload, data, seed, pass_no):
    """The inputs of one pass: census and ties graphs under fresh seeded labels.

    Family triples name graphs the program builds itself, so they stay as they are.
    """
    rng = random.Random(seed * 1_000_003 + pass_no)
    if workload == "census":
        return {"g6": [relabel_text(rng, t) for t in data["g6"]]}
    if workload == "ties":
        return {"pairs": [dict(p, g=relabel_text(rng, p["g"]), h=relabel_text(rng, p["h"]))
                          for p in data["pairs"]]}
    return data
