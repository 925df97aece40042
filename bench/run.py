#!/usr/bin/env python3
"""Benchmark of pervchow: one workload, one seed, one run.

    python3 bench/run.py --workload lattice_core --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
With ``--trace 0`` the run is a closed loop with one client that measures
the end-to-end metrics; with ``--trace 1`` it replays a fixed number of
rounds untraced and traced, and reports per-layer metrics.  Times are
reported at the reference speed of ``speed.SpeedProbe``.  A readable
report, with the raw times too, goes to stderr; the last line of stdout is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.
``correct`` is false when the program finished cleanly with an answer that
disagrees with its oracle; such ops count in ``failed`` too, beside crashes,
tracebacks and missed deadlines.
"""

from __future__ import annotations

import argparse
import json
import resource
import signal
import statistics
import sys
import time
from itertools import islice
from pathlib import Path

import oracles
import workloads
from spans import Tracer, layer_metrics
from speed import SpeedProbe
from workloads import OP_DEADLINE_S, Deadline, op_stream

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_OPS = 100  # the p90 needs at least ten samples beyond it
SETUP_REPEATS = 7


def die(message):
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def load_program():
    """Put ``src/`` of this checkout first on the path and import pervchow from it."""
    package = ROOT / "src" / "pervchow"
    if not (package / "__init__.py").is_file():
        die(f"no pervchow sources under {package}; run from a full checkout")
    sys.path.insert(0, str(ROOT / "src"))
    import pervchow.cli  # noqa: F401  (loads every module the wrappers patch)

    if Path(sys.modules["pervchow"].__file__).resolve().parent != package.resolve():
        die("pervchow was imported from outside this checkout")


def python_wall(args):
    """Wall time of ``python <args>`` in a fresh child process."""
    t0 = time.perf_counter()
    code, _, err = workloads.run_python(ROOT, args)
    elapsed = time.perf_counter() - t0
    if code != 0:
        die(f"python {' '.join(args)} exited {code}: {err.strip()[-500:]}")
    return elapsed


class Tally:
    """Latencies and failures of one pass over the ops.

    ``raw_ns`` are as measured; ``normalize`` sets ``latencies_ns``, the same
    at the reference speed.
    """

    def __init__(self):
        self.raw_ns = []
        self.marks = []  # the latest probe burst before each op
        self.latencies_ns = []
        self.round_sizes = []
        self.failed = 0
        self.wrong = 0
        self.exit_mismatches = 0
        self.problems = []

    def record(self, op, outcome, elapsed_ns, mark, problem):
        self.raw_ns.append(elapsed_ns)
        self.marks.append(mark)
        if "exit" in op.args and outcome[0] != op.args["exit"]:
            self.exit_mismatches += 1
        if problem:
            self.failed += 1
            self.wrong += problem[0] == "wrong"
            if len(self.problems) < 20:
                self.problems.append(f"{problem[0]}: {op.kind}: {problem[1]}")

    def normalize(self, probe):
        """Scale each latency by the probe bursts just before and just after it."""
        probe.burst()
        last = len(probe.bursts) - 1
        slowdowns = {m: probe.slowdown(m, m + 1) for m in set(self.marks) if m < last}
        self.latencies_ns = [raw / slowdowns[m] for raw, m in zip(self.raw_ns, self.marks)]

    def round_rates(self):
        """Ops per second of busy time, per whole round."""
        rates, start = [], 0
        for size in self.round_sizes:
            rates.append(size / (sum(self.latencies_ns[start : start + size]) / 1e9))
            start += size
        return rates


def _deadline(signum, frame):
    raise Deadline(f"no result within {OP_DEADLINE_S} s")


def timed(workload, ctx, op, tally, probe, tracer=None):
    """Run one op under the deadline; only ``execute`` is timed (and traced)."""
    mark = probe.mark()
    signal.setitimer(signal.ITIMER_REAL, OP_DEADLINE_S)
    if tracer is not None:
        tracer.active = True
    t0 = time.perf_counter_ns()
    outcome = workload.execute(ctx, op)
    elapsed = time.perf_counter_ns() - t0
    if tracer is not None:
        tracer.active = False
    signal.setitimer(signal.ITIMER_REAL, 0)
    tally.record(op, outcome, elapsed, mark, workload.check(ctx, op, outcome))


def closed_loop(workload, ctx, seed, seconds, probe):
    """Run rounds back to back until ``seconds`` have passed and MIN_OPS are done."""
    tally = Tally()
    start = time.perf_counter()
    for ops in op_stream(workload, seed):
        for op in ops:
            timed(workload, ctx, op, tally, probe)
        tally.round_sizes.append(len(ops))
        if time.perf_counter() - start >= seconds and len(tally.raw_ns) >= MIN_OPS:
            break
    tally.normalize(probe)
    return tally


def replay(workload, ctx, ops, probe, tracer=None):
    tally = Tally()
    for op in ops:
        timed(workload, ctx, op, tally, probe, tracer)
    tally.normalize(probe)
    return tally


def scaled(probe, measure):
    """``measure()`` seconds at the reference speed, from probe bursts before and after."""
    probe.burst()
    first = len(probe.bursts) - 1
    seconds = measure()
    probe.burst()
    return seconds / probe.slowdown(first, first + 1)


def import_seconds(probe):
    """Medians of interpreter start and of ``import pervchow.cli``, in fresh processes.

    The import is the wall of ``python -c "import pervchow.cli"`` minus that
    of ``python -c pass``; the two alternate, one pair per repeat.
    """
    start, full = [], []
    for _ in range(SETUP_REPEATS):
        start.append(scaled(probe, lambda: python_wall(["-c", "pass"])))
        full.append(scaled(probe, lambda: python_wall(["-c", "import pervchow.cli"])))
    return statistics.median(start), statistics.median(full) - statistics.median(start)


def setup_seconds(workload, probe):
    """Median set-up time at the reference speed, and the fixtures.

    ``cli_mix`` sets up with one untimed warm-up command per repeat; the
    in-process workloads pay the import of ``pervchow.cli`` plus their
    fixture set-up.  Each repeat is scaled by the probe bursts around it.
    """
    if workload.name == "cli_mix":
        warm_up = ["-c", workloads.CLI_LAUNCHER, "schema", "snf"]
        warm = [scaled(probe, lambda: python_wall(warm_up)) for _ in range(SETUP_REPEATS)]
        return statistics.median(warm), workload.setup()
    fixtures = []

    def build():
        t0 = time.perf_counter()
        fixtures.append(workload.setup())
        return time.perf_counter() - t0

    builds = [scaled(probe, build) for _ in range(SETUP_REPEATS)]
    return import_seconds(probe)[1] + statistics.median(builds), fixtures[-1]


def peak_rss_mb(workload, ctx):
    """Peak resident set of the process that ran the program (sympy runs in a child of its own)."""
    if workload.name == "cli_mix":
        return ctx["peak_kib"] / 1024  # the largest child's own peak
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # Linux reports KiB


def end_to_end(workload, seed, seconds):
    probe = SpeedProbe()
    setup_s, ctx = setup_seconds(workload, probe)
    tally = closed_loop(workload, ctx, seed, seconds, probe)
    peak_mb = peak_rss_mb(workload, ctx)
    lat_ms = [x / 1e6 for x in tally.latencies_ns]
    raw_ms = [x / 1e6 for x in tally.raw_ns]
    n = len(lat_ms)
    p90 = statistics.quantiles(lat_ms, n=10)[8]
    metrics = {
        "throughput_ops_per_s": (statistics.median(tally.round_rates()), "1/s"),
        "latency_p50_ms": (statistics.median(lat_ms), "ms"),
        "latency_p90_ms": (p90, "ms"),
        "setup_s": (setup_s, "s"),
        "success_rate": (1 - tally.failed / n, "ratio"),
        "peak_rss_mb": (peak_mb, "MB"),
    }
    notes = [
        f"throughput_ops_per_s is the median over {len(tally.round_sizes)} rounds;"
        f" over the whole run it is {n / (sum(lat_ms) / 1e3):.6f}",
        f"latency_p50_ms over {n} samples",
        f"latency_p90_ms over {n} samples, {sum(1 for x in lat_ms if x > p90)} beyond it",
        f"error_rate {tally.failed / n:.6f} ratio ({tally.failed} failed of {n} attempted)",
        f"host slowdown: median {probe.run_slowdown():.4f} over {len(probe.bursts)} probe bursts;"
        f" raw p50 {statistics.median(raw_ms):.6f} ms, raw p90 {statistics.quantiles(raw_ms, n=10)[8]:.6f} ms",
    ]
    return tally, metrics, notes


def per_layer(workload, seed):
    probe = SpeedProbe()
    start_s, import_s = import_seconds(probe)
    metrics = {"import.interp_start_ms": (start_s * 1e3, "ms"), "import.cli_ms": (import_s * 1e3, "ms")}
    ctx = workload.setup()
    if workload.name == "cli_mix":
        ctx["inprocess"] = True  # the traced replay runs cli.run and Report.render in this process
    ops = [op for ops in islice(op_stream(workload, seed), workload.trace_rounds) for op in ops]
    # one untraced warm-up replay, then the traced one
    wrong = replay(workload, ctx, ops, probe).wrong
    tracer = Tracer()
    with tracer:
        tally = replay(workload, ctx, ops, probe, tracer)
    slowdown = probe.run_slowdown()
    for name, (value, unit) in layer_metrics(tracer.spans, tracer.snf_inputs).items():
        metrics[name] = (value / slowdown if unit in ("ms", "us") else value, unit)
    metrics["cli.exit_code_mismatches"] = (tally.exit_mismatches, "count")
    # the wrappers' own bookkeeping over the rest of the traced busy time
    traced_ns = sum(tally.raw_ns)
    metrics["trace.overhead_frac"] = (tracer.cost_ns / (traced_ns - tracer.cost_ns), "ratio")
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    path = out / f"spans-{workload.name}-{seed}.json"
    tracer.dump(path, {"workload": workload.name, "seed": seed, "ops": len(ops)})
    notes = [
        f"replayed {len(ops)} ops ({workload.trace_rounds} rounds) untraced to warm up, then traced",
        f"spans written to {path}",
    ]
    tally.wrong += wrong
    return tally, metrics, notes


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    load_program()
    signal.signal(signal.SIGALRM, _deadline)
    if args.workload not in workloads.NAMES:
        die(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.NAMES)}")
    workload = workloads.make(args.workload, ROOT)
    try:
        if args.trace:
            tally, metrics, notes = per_layer(workload, args.seed)
        else:
            tally, metrics, notes = end_to_end(workload, args.seed, args.seconds)
    finally:
        oracles.close()

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:>16.6f} {unit}", file=sys.stderr)
    for line in notes + tally.problems:
        print(f"  {line}", file=sys.stderr)
    result = {
        "correct": tally.wrong == 0,
        "attempted": len(tally.latencies_ns),
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
