"""The census, ties and family passes, written against specrad's public API.

Each pass is a closed loop over its items: the next item starts when the
previous one has finished.  Calls go through module attributes
(``graphs.g6_decode``), so a :class:`spans.Tracer` installed for a traced
pass sees them.  A pass returns a :class:`PassResult`; ``verify.py`` checks
its outputs afterwards, outside the timed region.
"""

from __future__ import annotations

from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from specrad import connectivity, graphs, quotient, spectral

# Census graphs whose float radius comes within this share of the cubic root
# are settled exactly against the extremal graph.
NEAR_TIE_MARGIN = 1e-8
# Perron radius and cubic root must agree to this share of max(1, rho).
ROOT_AGREEMENT = 1e-9


@dataclass
class PassResult:
    """What one pass produced: per-item outputs, latencies and failures."""

    wall_s: float = 0.0
    latencies: list = field(default_factory=list)
    outputs: list = field(default_factory=list)
    failures: dict = field(default_factory=dict)
    extra: dict = field(default_factory=dict)


def _span(tracer, name, item):
    return nullcontext() if tracer is None else tracer.span(name, item)


def run_items(items, fn, clock, result, tracer=None, span_name="item"):
    """Closed loop over items; fn(item, out) fills the dict `out`.

    An item that raises is recorded in ``result.failures`` with the outputs
    it had produced so far, and the loop goes on with the next item.
    """
    for i, item in enumerate(items):
        out = {}
        start = clock()
        try:
            with _span(tracer, span_name, i):
                fn(item, out)
        except Exception as exc:  # recorded as the item's failure
            result.failures[i] = f"{type(exc).__name__}: {exc}"
        result.latencies.append(clock() - start)
        result.outputs.append(out)
    return result


class Check(AssertionError):
    """A requirement of the workload that the program's result did not meet."""


def require(cond, what):
    if not cond:
        raise Check(what)


# -- census ----------------------------------------------------------------


def _classify(line, out):
    g = graphs.g6_decode(line)
    out["delta"] = graphs.min_degree(g)
    k = 0
    while not connectivity.connectivity_at_most(g, k):
        k += 1
    out["n"], out["kappa"] = g.n, k
    out["graph"] = g


def _settle_class(key, members):
    """Float radii for one (n, k, delta) class, then the verdict against the cubic."""
    n, k, d = key
    rhos = spectral.perron_rho_batch(np.stack([g.adjacency_matrix() for g in members]))
    res = {"max_rho": float(rhos.max()), "root": None, "verdict": "n/a", "exact": {}}
    p = graphs.ExtremalParams(n, k, d)
    if not (p.is_valid and p.realizes_min_degree):
        return res, 0
    root = quotient.largest_cubic_root(quotient.cubic_coefficients(p))
    ext = graphs.extremal_graph(p)
    exact = Counter()
    for g, rho in zip(members, rhos):
        if rho >= root - NEAR_TIE_MARGIN * max(1.0, root):
            exact[spectral.exact_compare_rho(g, ext).value] += 1
    res.update(root=root, exact=dict(exact),
               verdict="violated" if exact["greater"] else "holds")
    return res, sum(exact.values())


def census_pass(inputs, clock, tracer=None):
    """Classify every graph by (n, kappa, delta), then settle each class."""
    res = PassResult()
    start = clock()
    run_items(inputs["g6"], _classify, clock, res, tracer, "census.classify")
    classes = {}
    for i, out in enumerate(res.outputs):
        if i not in res.failures:
            g = out.pop("graph")
            classes.setdefault((g.n, out["kappa"], out["delta"]), []).append((i, g))
    verdicts, settled = {}, 0
    for key in sorted(classes):
        idx = [i for i, _ in classes[key]]
        try:
            with _span(tracer, "census.class", -1):
                verdicts[key], n_exact = _settle_class(key, [g for _, g in classes[key]])
            settled += n_exact
        except Exception as exc:  # every graph of the class fails with it
            for i in idx:
                res.failures[i] = f"class {key}: {type(exc).__name__}: {exc}"
    res.wall_s = clock() - start
    res.extra = {"classes": verdicts, "near_tie": settled,
                 "radii": sum(len(v) for v in classes.values())}
    return res


# -- ties --------------------------------------------------------------------


def _compare(pair, out):
    g = graphs.g6_decode(pair["g"])
    h = graphs.g6_decode(pair["h"])
    out["ordering"] = spectral.exact_compare_rho(g, h).value


def ties_pass(inputs, clock, tracer=None):
    res = PassResult()
    start = clock()
    run_items(inputs["pairs"], _compare, clock, res, tracer, "ties.pair")
    res.wall_s = clock() - start
    return res


# -- family --------------------------------------------------------------------


def _triple(triple, out):
    n, k, d = triple
    p = graphs.ExtremalParams(n, k, d)
    g = graphs.extremal_graph(p)
    kappa, witness = connectivity.vertex_connectivity(g)
    out["kappa"] = kappa
    require(kappa == k, f"kappa {kappa} != k")
    witness.check(g)
    out["delta"] = graphs.min_degree(g)
    require(out["delta"] == d or not p.realizes_min_degree, f"min degree {out['delta']} != delta")
    part = quotient.canonical_three_blocks(p)
    require(quotient.is_equitable(g, part), "canonical partition not equitable")
    qm = quotient.quotient_matrix(g, part)
    out["quotient"] = qm.matrix.tolist()
    rho = spectral.perron(g).rho
    cubic = quotient.cubic_coefficients(p)
    root = quotient.largest_cubic_root(cubic)
    out["rho"], out["root"], out["cubic"] = rho, root, list(cubic.as_poly())
    require(abs(rho - root) <= ROOT_AGREEMENT * max(1.0, rho), f"perron {rho!r} != root {root!r}")
    out["charpoly"] = list(spectral.int_charpoly(g).coeffs)
    rho_q, x = quotient.quotient_perron(qm)
    y = quotient.lift_block_vector(part, x)
    spectral.PerronPair(rho_q, y / np.linalg.norm(y)).check(g.adjacency_matrix())


def family_pass(inputs, clock, tracer=None):
    res = PassResult()
    start = clock()
    run_items(inputs["triples"], _triple, clock, res, tracer, "family.triple")
    res.wall_s = clock() - start
    return res


PASSES = {"census": census_pass, "ties": ties_pass, "family": family_pass}
