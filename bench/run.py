#!/usr/bin/env python3
"""Run one workload of the specrad benchmark and print its metrics.

    python3 bench/run.py --workload census --seed 1 --seconds 30 --trace 0

Set-up (imports plus seeded input generation) runs in fresh child
processes: once to warm the file cache, then SETUP_REPEATS times spread over
the run, between passes.  Their inputs must be byte-identical and the median
time is ``setup_s``.  Another child computes the oracle's expectations.  The
timed passes repeat the workload in a closed loop for about ``--seconds``,
and each pass is checked against the oracle between passes.
With ``--trace 1`` untraced and traced passes alternate and the per-layer
metrics are printed instead.  The last line of standard output is the JSON
result; the line before it is the full report, also written under
``.bench_out/``.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
sys.path.insert(0, str(SRC))

WORKLOADS = ("census", "ties", "family")
SETUP_REPEATS = 9
# Kept out of development runs; a later claim is re-checked on this seed.
HELDOUT_SEED = 7919
TAIL_PERCENTILES = (50, 75, 80, 85, 90, 95, 98, 99, 99.5, 99.8, 99.9, 99.95, 99.99)
TAIL_MIN_BEYOND = 10
MIN_PASSES = 3
CHILD_TIMEOUT_S = 120


def child(flag, workload, seed, stdin=None):
    """Run this script with `flag` in a fresh process; its standard output."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), flag,
         "--workload", workload, "--seed", str(seed)],
        input=stdin, capture_output=True, timeout=CHILD_TIMEOUT_S, check=False)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr.decode(errors="replace"))
        sys.exit(f"{flag} child failed with exit code {proc.returncode}")
    return proc.stdout


def probe(workload, seed):
    """Set-up child: import the program, build the inputs, report both."""
    import specrad.graphs

    if Path(specrad.graphs.__file__).resolve().parent != SRC / "specrad":
        sys.exit(f"specrad imported from {specrad.graphs.__file__}, not from {SRC}")
    import workloads  # noqa: F401  (the imports a pass needs)
    from inputs import GENERATORS, serialize

    blob = serialize(GENERATORS[workload](seed))
    sys.stdout.write(json.dumps({"setup_s": time.perf_counter() - T_START}) + "\n")
    sys.stdout.flush()
    sys.stdout.buffer.write(blob)


class Setups:
    """Set-up probes: one warm-up, then SETUP_REPEATS timed ones spread over the run.

    A shared machine slows down in spells of seconds to minutes; probes made
    back to back at the start of a run would all fall in the same one.  Probe j is
    due once the fraction (j + 1/2) / SETUP_REPEATS of the timed passes has
    gone by; the warm-up loads the program's files into the file cache and
    supplies the inputs.
    """

    def __init__(self, workload, seed, probe=None):
        self.probe = probe or (lambda: self._child(workload, seed))
        self.blob = self.probe()[1]
        self.blobs, self.times = {self.blob}, []

    @staticmethod
    def _child(workload, seed):
        head, _, blob = child("--setup-probe", workload, seed).partition(b"\n")
        return json.loads(head)["setup_s"], blob

    def run_due(self, fraction):
        """Run the probes due once `fraction` of the timed passes has gone by."""
        while (len(self.times) < SETUP_REPEATS
               and (len(self.times) + 0.5) / SETUP_REPEATS <= fraction):
            t, blob = self.probe()
            self.times.append(t)
            self.blobs.add(blob)

    def result(self):
        """Median set-up time, and whether every probe built the same inputs."""
        self.run_due(1.0)
        return statistics.median(self.times), len(self.blobs) == 1


def expectations(workload):
    """Oracle child: expectations for the inputs read from standard input."""
    from oracle import EXPECT

    sys.stdout.write(json.dumps(EXPECT[workload](json.load(sys.stdin.buffer))))


def percentile(sorted_vals, p):
    """Nearest-rank percentile of an ascending list."""
    idx = max(0, -(-len(sorted_vals) * p // 100) - 1)
    return sorted_vals[int(idx)]


def tail(sorted_vals):
    """(percentile, value): the highest listed percentile with 10 samples beyond it."""
    p = max(q for q in TAIL_PERCENTILES
            if len(sorted_vals) * (100 - q) / 100 >= TAIL_MIN_BEYOND or q == 50)
    return p, percentile(sorted_vals, p)


def pass_time(passes):
    """Time of one pass, and each item's latency, taken as the best over the passes.

    A shared machine runs in spells of a few seconds up to 1.5x slower than
    usual, often for a third of a run or more, so a median over passes lands
    on either side.  An item's fastest time over passes made at different
    moments (and likewise the time spent outside items, the census class
    stage) misses the slow spells; the pass time is their sum.
    """
    per_item = [min(lat) for lat in zip(*(p.latencies for p in passes))]
    rest = min(p.wall_s - sum(p.latencies) for p in passes)
    return sum(per_item) + rest, per_item


class Verdicts:
    """Failures and oracle mismatches, by item, over every pass checked."""

    def __init__(self, workload, expect):
        from verify import CHECK

        self.check = CHECK[workload]
        self.expect = expect
        self.failures, self.mismatches = {}, {}

    def take(self, res):
        """Check a finished pass, then drop its outputs so memory stays flat."""
        self.failures.update(res.failures)
        self.mismatches.update(self.check(self.expect, res))
        res.outputs = None
        res.extra.pop("classes", None)
        return res


def timed_passes(workload, data, seed, seconds, traced, verdicts, setups):
    """Closed-loop passes for about `seconds`, and at least MIN_PASSES of them.

    Every pass gets freshly relabeled inputs.  Traced runs alternate a plain
    and a traced pass, so both see the same conditions.  The set-up probes due
    run between passes; their time does not count against `seconds`.
    """
    from g6 import pass_inputs
    from spans import Tracer, self_times
    from workloads import PASSES

    pass_fn, clock = PASSES[workload], time.perf_counter
    plain, with_trace, layers, outcomes, spans = [], [], {}, {}, []
    end = clock() + seconds
    while len(plain) < MIN_PASSES or clock() + plain[-1].wall_s * (1 + traced) <= end:
        res = pass_fn(pass_inputs(workload, data, seed, len(plain)), clock)
        plain.append(verdicts.take(res))
        now = clock()
        setups.run_due(1 - (end - now) / seconds)
        end += clock() - now
        if not traced:
            continue
        tracer = Tracer(clock).install()
        try:
            res = pass_fn(pass_inputs(workload, data, seed, -len(plain)), clock, tracer)
        finally:
            tracer.restore()
        with_trace.append(verdicts.take(res))
        for name, (calls, self_s) in self_times(tracer.spans).items():
            acc = layers.setdefault(name, [0, 0.0])
            acc[0] += calls
            acc[1] += self_s
        for name, counts in tracer.outcomes.items():
            acc = outcomes.setdefault(name, {})
            for label, c in counts.items():
                acc[label] = acc.get(label, 0) + c
        spans = tracer.spans
    return plain, with_trace, layers, outcomes, spans


def end_to_end(items, plain, setup_s, rss_mb, failed):
    wall, per_item = pass_time(plain)
    per_item.sort()
    tail_pct, tail_s = tail(per_item)
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (wall, "s"),
        "items_per_s": (items / wall, "1/s"),
        "item_p50_ms": (1e3 * percentile(per_item, 50), "ms"),
        "item_tail_ms": (1e3 * tail_s, "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
        "failed_frac": (failed / items, "ratio"),
    }
    return metrics, {"percentile": tail_pct, "samples": len(per_item), "passes": len(plain)}


def per_layer(workload, plain, traced, layers, outcomes):
    from spans import TRACED

    n = len(traced)
    wall = sum(p.wall_s for p in traced)
    metrics = {}
    module_self = dict.fromkeys(TRACED, 0.0)
    for mod, names in TRACED.items():
        for name in names:
            calls, self_s = layers.get(f"{mod}.{name}", (0, 0.0))
            metrics[f"{mod}.{name}.calls"] = (calls / n, "count")
            metrics[f"{mod}.{name}.self_s"] = (self_s / n, "s")
            module_self[mod] += self_s
    for mod, self_s in module_self.items():
        metrics[f"{mod}.self_frac"] = (self_s / wall, "ratio")
    scan = outcomes.get("connectivity.connectivity_at_most", {})
    tried = sum(scan.values())
    metrics["connectivity.connectivity_at_most.true_frac"] = (
        scan.get("true", 0) / tried if tried else 0.0, "ratio")
    cmp = outcomes.get("spectral.exact_compare_rho", {})
    metrics["spectral.exact_compare_rho.equal_poly"] = (cmp.get("equal_poly", 0) / n, "count")
    metrics["spectral.exact_compare_rho.equal_rho"] = (cmp.get("equal_rho", 0) / n, "count")
    metrics["spectral.exact_compare_rho.strict"] = (
        (cmp.get("less", 0) + cmp.get("greater", 0)) / n, "count")
    extra = traced[0].extra
    metrics["census.near_tie_frac"] = (
        extra["near_tie"] / extra["radii"] if workload == "census" else 0.0, "ratio")
    untraced_wall, traced_wall = pass_time(plain)[0], pass_time(traced)[0]
    metrics["trace.overhead_frac"] = ((traced_wall - untraced_wall) / untraced_wall, "ratio")
    metrics["trace.wrapped_frac"] = (sum(module_self.values()) / wall, "ratio")
    return metrics


def environment(seed):
    import networkx
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"cpu": cpu, "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "networkx": networkx.__version__,
            "blas_threads": {v: os.environ[v] for v in BLAS_VARS},
            "seed": seed, "heldout_seed": HELDOUT_SEED}


def describe(workload, data, idx):
    if workload == "family":
        return data["triples"][idx]
    if workload == "ties":
        return data["pairs"][idx]["kind"]
    return data["g6"][idx]


def write_out(name, report, spans):
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{name}.json").write_text(json.dumps(report, indent=1) + "\n")
    if spans:
        with open(OUT_DIR / f"{name}.spans.jsonl", "w", encoding="ascii") as fh:
            for i, (span, start, end, parent, item) in enumerate(spans):
                fh.write(json.dumps({"id": i, "name": span, "start": start, "end": end,
                                     "parent": parent, "item": item}) + "\n")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--oracle", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    for var in BLAS_VARS:  # before numpy is imported, here and in the children
        os.environ[var] = "1"
    if args.setup_probe:
        return probe(args.workload, args.seed)
    if args.oracle:
        return expectations(args.workload)

    setups = Setups(args.workload, args.seed)
    data = json.loads(setups.blob)
    expect = json.loads(child("--oracle", args.workload, args.seed, stdin=setups.blob))
    verdicts = Verdicts(args.workload, expect)
    plain, traced, layers, outcomes, spans = timed_passes(
        args.workload, data, args.seed, args.seconds, bool(args.trace), verdicts, setups)
    setup_s, inputs_agree = setups.result()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    items = len(plain[0].latencies)
    failures = {**verdicts.failures, **verdicts.mismatches}
    correct = not verdicts.mismatches and inputs_agree
    e2e, tail_info = end_to_end(items, plain, setup_s, rss_mb, len(failures))
    report = {
        "workload": args.workload, "trace": args.trace, "passes": len(plain),
        "pass_wall_s": [p.wall_s for p in plain], "setup_probe_s": setups.times,
        "traced_passes": len(traced), "items": items, "tail": tail_info,
        "correct": correct, "inputs_agree": inputs_agree,
        "failures": [{"item": describe(args.workload, data, i), "reason": r}
                     for i, r in sorted(failures.items())],
        "oracle_mismatches": len(verdicts.mismatches),
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()},
        "env": environment(args.seed),
    }
    if args.trace:
        chosen = per_layer(args.workload, plain, traced, layers, outcomes)
        report["per_layer"] = {k: {"value": v, "unit": u} for k, (v, u) in chosen.items()}
    else:
        chosen = {k: v for k, v in e2e.items() if k != "failed_frac"}
    write_out(f"{args.workload}-seed{args.seed}-trace{args.trace}", report, spans)
    print(json.dumps(report))
    print(json.dumps({"correct": correct, "attempted": items, "failed": len(failures),
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in chosen.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
