"""Tests of the benchmark itself: inputs, oracle, tracing and failure counting.

Run with ``python3 -m pytest bench/tests -q`` from the repository root.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import g6  # noqa: E402
import inputs  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import verify  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer, self_times  # noqa: E402
from specrad import connectivity, graphs, spectral  # noqa: E402

TINY = {
    "census": lambda seed: inputs.census_inputs(seed, atlas_max_n=5, orders=(6,),
                                                per_stratum=4, extremal_max_n=6),
    "ties": lambda seed: inputs.ties_inputs(seed, orders=(8, 9, 10), per_kind=2),
    "family": lambda seed: inputs.family_inputs(seed, max_n=7),
}


def expected(workload, data):
    """The oracle's expectations as the measuring process receives them, through JSON."""
    return json.loads(json.dumps(oracle.EXPECT[workload](data)))


@pytest.mark.parametrize("workload", ["census", "ties", "family"])
def test_seed_determines_inputs(workload):
    a = inputs.serialize(TINY[workload](3))
    assert a == inputs.serialize(TINY[workload](3))
    assert a != inputs.serialize(TINY[workload](4))
    data = TINY[workload](3)
    first = inputs.serialize(g6.pass_inputs(workload, data, 3, 1))
    assert first == inputs.serialize(g6.pass_inputs(workload, data, 3, 1))
    if workload != "family":
        assert first != inputs.serialize(g6.pass_inputs(workload, data, 3, 2))


def test_inputs_do_not_depend_on_hash_seed():
    code = ("import hashlib, inputs; "
            "print(hashlib.sha256(inputs.serialize(inputs.ties_inputs(5, (8, 9), 2))).hexdigest())")
    digests = {subprocess.run([sys.executable, "-c", code], cwd=BENCH, capture_output=True,
                              text=True, check=True, timeout=120,
                              env={**os.environ, "PYTHONHASHSEED": h}).stdout
               for h in ("1", "2")}
    assert len(digests) == 1


def test_graph6_writer_matches_specrad_decoder():
    n, edges = 9, [(0, 8), (1, 2), (3, 7), (4, 5), (2, 6)]
    text = g6.encode(n, edges)
    g = graphs.g6_decode(text)
    assert sorted(g.edges()) == sorted(edges)
    assert g6.decode(text) == (n, sorted(edges, key=lambda e: (e[1], e[0])))


@pytest.mark.parametrize("workload", ["census", "ties", "family"])
def test_oracle_agrees_with_specrad_at_tiny_size(workload):
    data = TINY[workload](1)
    res = workloads.PASSES[workload](g6.pass_inputs(workload, data, 1, 0), time.perf_counter)
    assert verify.CHECK[workload](expected(workload, data), res) == {}
    # The only failures allowed are the known quotient_perron residual defect.
    assert all("Perron residual" in why for why in res.failures.values())
    if workload != "family":
        assert res.failures == {}


def test_oracle_catches_a_wrong_answer():
    data = TINY["ties"](1)
    res = workloads.ties_pass(data, time.perf_counter)
    res.outputs[0]["ordering"] = "greater" if res.outputs[0]["ordering"] != "greater" else "less"
    assert list(verify.CHECK["ties"](expected("ties", data), res)) == [0]


def test_self_time_of_nested_spans():
    spans = [("a", 0.0, 10.0, -1, 0),
             ("b", 1.0, 4.0, 0, 0),
             ("c", 5.0, 9.0, 0, 0),
             ("b", 6.0, 7.0, 2, 0)]
    got = self_times(spans)
    assert got["a"] == [1, pytest.approx(3.0)]
    assert got["b"] == [2, pytest.approx(4.0)]
    assert got["c"] == [1, pytest.approx(3.0)]


def test_tracer_sees_nested_calls_and_restores():
    orig_cmp, orig_conn = spectral.exact_compare_rho, connectivity.is_connected
    tracer = Tracer().install()
    try:
        assert connectivity.is_connected is graphs.is_connected is not orig_conn
        spectral.exact_compare_rho(graphs.cycle(5), graphs.cycle(6))
    finally:
        tracer.restore()
    assert spectral.exact_compare_rho is orig_cmp and connectivity.is_connected is orig_conn
    names = [s[0] for s in tracer.spans]
    root = names.index("spectral.exact_compare_rho")
    children = {s[0] for s in tracer.spans if s[3] == root}
    assert {"spectral.int_charpoly", "graphs.is_connected",
            "exactroots.compare_largest_roots"} <= children
    assert tracer.outcomes["spectral.exact_compare_rho"]["equal_rho"] == 1


def test_failed_frac_counts_a_wrapped_call_that_raises():
    lines = [g6.encode(4, [(0, 1), (1, 2), (2, 3)]), "C~~", g6.encode(3, [(0, 1), (1, 2)])]
    tracer = Tracer().install()
    try:
        res = workloads.census_pass({"g6": lines}, time.perf_counter, tracer)
    finally:
        tracer.restore()
    assert list(res.failures) == [1]
    assert tracer.outcomes["graphs.g6_decode"]["raised"] == 1
    metrics, _ = run.end_to_end(len(lines), [res], 0.1, 1.0, len(res.failures))
    assert metrics["failed_frac"][0] == pytest.approx(1 / 3)


def test_tail_keeps_ten_samples_beyond():
    vals = sorted(range(104))
    assert run.tail(vals)[0] == 90
    assert run.tail(sorted(range(2864)))[0] == 99.5
    assert run.tail(list(range(5)))[0] == 50


def test_setup_probes_skip_the_warm_up_and_spread_over_the_run():
    times = iter([9.0] + [0.1 * i for i in range(1, run.SETUP_REPEATS + 1)])
    setups = run.Setups("ties", 1, probe=lambda: (next(times), b"inputs"))
    assert setups.blob == b"inputs" and setups.times == []
    setups.run_due(0.0)
    assert setups.times == []
    setups.run_due(0.5)
    assert 0 < len(setups.times) < run.SETUP_REPEATS
    median, agree = setups.result()
    assert len(setups.times) == run.SETUP_REPEATS and agree
    assert 9.0 not in setups.times and median < 9.0
