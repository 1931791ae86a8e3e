"""Expected results computed without specrad: networkx, numpy and closed forms.

``EXPECT[workload](inputs)`` returns plain JSON data computed from the base
inputs; it holds for every relabeled pass.  ``run.py`` calls it in a child
process before the timed passes, so networkx never enters the measuring
process; ``verify.py`` compares each pass with the result.
"""

from __future__ import annotations

import networkx as nx
import numpy as np

from inputs import clique_join_edges
from verify import RHO_TOL


def _radius(g):
    a = nx.to_numpy_array(g, nodelist=range(len(g)))
    return float(np.linalg.eigvalsh(a)[-1])


def _ext_radius(n, k, d):
    return _radius(nx.Graph(clique_join_edges(n, k, d)))


def applies(n, k, d):
    """The claim covers (n, k, delta): both cliques nonempty and minimum degree delta."""
    return 1 <= k <= d <= n - 2 and n >= 2 * d + 2 - k


def census_expect(inputs):
    """Per graph [n, kappa, delta], per class [n, k, d, max_rho, ext_rho, verdict]."""
    graphs, radii = [], {}
    for line in inputs["g6"]:
        g = nx.from_graph6_bytes(line.encode("ascii"))
        key = (len(g), nx.node_connectivity(g), min(d for _, d in g.degree()))
        graphs.append(list(key))
        radii[key] = max(_radius(g), radii.get(key, -1.0))
    classes = []
    for (n, k, d), max_rho in sorted(radii.items()):
        ext, verdict = None, "n/a"
        if applies(n, k, d):
            ext = _ext_radius(n, k, d)
            verdict = "holds" if max_rho <= ext + RHO_TOL * ext else "violated"
        classes.append([n, k, d, max_rho, ext, verdict])
    return {"graphs": graphs, "classes": classes}


def expected_ordering(pair):
    """From the construction, else from the sign of the eigvalsh gap."""
    if pair["kind"] == "relabel":
        return "equal_poly"
    if pair["kind"] == "regular":
        return "equal_rho"
    gap = (_radius(nx.from_graph6_bytes(pair["g"].encode("ascii")))
           - _radius(nx.from_graph6_bytes(pair["h"].encode("ascii"))))
    if abs(gap) <= RHO_TOL:
        return "undecided"
    return "greater" if gap > 0 else "less"


def _polymul(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def family_expect(n, k, d):
    """Quotient, cubic det(xI - Q), charpoly (x+1)^(n-3) * cubic, kappa, delta, rho.

    kappa = k: the join block S sees every vertex, so a cut must contain all
    of S, and S alone already separates the two cliques.
    """
    a, b = d - k + 1, n - d - 1
    q = [[k - 1, a, b], [k, a - 1, 0], [k, 0, b - 1]]
    tr = q[0][0] + q[1][1] + q[2][2]
    minors = sum(q[i][i] * q[j][j] - q[i][j] * q[j][i] for i, j in ((0, 1), (0, 2), (1, 2)))
    det = (q[0][0] * (q[1][1] * q[2][2] - q[1][2] * q[2][1])
           - q[0][1] * (q[1][0] * q[2][2] - q[1][2] * q[2][0])
           + q[0][2] * (q[1][0] * q[2][1] - q[1][1] * q[2][0]))
    cubic = [-det, minors, -tr, 1]
    charpoly = cubic
    for _ in range(n - 3):
        charpoly = _polymul(charpoly, (1, 1))
    return {"quotient": [[float(v) for v in row] for row in q], "cubic": cubic,
            "charpoly": charpoly, "kappa": k, "delta": min(d, n - d - 2 + k),
            "rho": _ext_radius(n, k, d)}


EXPECT = {
    "census": census_expect,
    "ties": lambda inputs: [expected_ordering(pair) for pair in inputs["pairs"]],
    "family": lambda inputs: [family_expect(*t) for t in inputs["triples"]],
}
