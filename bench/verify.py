"""Comparison of one pass's outputs with the oracle's expectations.

``CHECK[workload](expect, res)`` returns the mismatches as {item index:
reason}.  It runs between passes, outside the timed region.
"""

from __future__ import annotations

# Float radii from the program and from eigvalsh agree to this share of max(1, rho).
RHO_TOL = 1e-9


def _close(x, y):
    return abs(x - y) <= RHO_TOL * max(1.0, abs(y))


def check_census(expect, res):
    bad = {}
    members = {}
    for i, want in enumerate(expect["graphs"]):
        members.setdefault(tuple(want), []).append(i)
        got = [res.outputs[i].get(k) for k in ("n", "kappa", "delta")]
        if got != want:
            bad[i] = f"(n, kappa, delta) {got} != {want}"
    for n, k, d, max_rho, ext_rho, verdict in expect["classes"]:
        got = res.extra["classes"].get((n, k, d))
        if got is None:
            why = "class missing"
        elif not _close(got["max_rho"], max_rho):
            why = f"max radius {got['max_rho']!r} != {max_rho!r}"
        elif got["verdict"] != verdict:
            why = f"verdict {got['verdict']} != {verdict}"
        elif ext_rho is not None and not _close(got["root"], ext_rho):
            why = f"cubic root {got['root']!r} != {ext_rho!r}"
        else:
            continue
        for i in members[(n, k, d)]:
            bad.setdefault(i, f"class {(n, k, d)}: {why}")
    return bad


def check_ties(expect, res):
    bad = {}
    for i, want in enumerate(expect):
        got = res.outputs[i].get("ordering")
        if got != want:
            bad[i] = f"ordered {got}, expected {want}"
    return bad


def check_family(expect, res):
    bad = {}
    for i, want in enumerate(expect):
        out = res.outputs[i]
        for key in ("kappa", "delta", "quotient", "cubic", "charpoly"):
            if key in out and out[key] != want[key]:
                bad[i] = f"{key} {out[key]} != {want[key]}"
        for key in ("rho", "root"):
            if key in out and not _close(out[key], want["rho"]):
                bad[i] = f"{key} {out[key]!r} != eigvalsh {want['rho']!r}"
    return bad


CHECK = {"census": check_census, "ties": check_ties, "family": check_family}
