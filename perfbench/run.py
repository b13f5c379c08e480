"""One-command benchmark of phagesim's CLI, end to end or traced layer by layer.

    python3 perfbench/run.py --workload det-sweep --seed 1 --seconds 20 --trace 0

Run from the root of a phagesim checkout; the program is imported from its
`src/`. The benchmark writes the workload's scenario files from --seed, then
one client runs the workload's operations one after another through
`phagesim.cli.main(argv)` in this process (closed loop, one thread), in
whole rounds, until less than half a round of --seconds is left. Round 0's
artifacts are checked against independent references (checks.py); every
later round must reproduce them byte for byte. The last line of standard
output is the result as JSON. --trace 1 alternates untraced and traced
rounds after a cold one, and reports per-layer metrics instead (tracing.py).
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

import checks
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")
SETUP_RUNS = 5  # fresh processes timed for setup_s; the median is reported
# Reported times are scaled to one host speed, which probe_seconds measures
# just before and just after each timed piece of work: the shared host's
# speed drifts by up to 2x in phases of 10 to 60 s, within a run and between
# runs. PROBE_REF_S is the probe's median time on the host of README.md, so
# times read as seconds at that host's usual speed.
PROBE_LOOPS = 500
PROBE_REF_S = 3.3e-3
# sde-many-paths is bound by the memory traffic of its 100 MB arrays, which
# the probe does not track: scaled, its 6 s operations spread 31-34% from run
# to run against 8-23% as measured, so its operations are timed as measured
UNSCALED = {"sde-many-paths"}

# runs in a fresh interpreter: import the package and parse the scenarios
SETUP_PROBE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import phagesim
from phagesim.scenario import parse_scenario
for path in sys.argv[2:]:
    parse_scenario(path)
print(time.perf_counter() - t0)
"""


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def run_op(cli, op, out):
    """Run one operation's invocations; returns (seconds, [(exit code, output)])."""
    os.makedirs(out, exist_ok=True)
    outputs = []
    start = time.perf_counter()
    for command in op.commands:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            try:
                rc = cli.main(workloads.argv(op, command, out))
            except SystemExit as exc:  # argparse rejected the arguments
                rc = exc.code
            except Exception as exc:  # a crash is a failed operation, not the end of the run
                rc = f"{type(exc).__name__}: {exc}"
        outputs.append((rc, buf.getvalue()))
    return time.perf_counter() - start, outputs


def probe_seconds():
    """The host's current speed: the median time of a fixed loop of small numpy operations.

    The loop is independent of phagesim and, like the program, is bound by
    interpreter and ufunc-dispatch overhead, so it slows down with the host.
    """
    runs = []
    for _ in range(3):
        a = np.arange(1000.0)
        start = time.perf_counter()
        for _ in range(PROBE_LOOPS):
            a = np.sqrt(a * 1.0001 + 1.0)
        runs.append(time.perf_counter() - start)
    return statistics.median(runs)


def at_reference_speed(seconds, probe_before, probe_after):
    """A time taken between two probes, scaled to the host speed at which the probe takes PROBE_REF_S."""
    return seconds * PROBE_REF_S / (0.5 * (probe_before + probe_after))


def run_round(cli, ops, outroot, before_op=None, scaled=True):
    """Run every operation once; returns (times, outputs).

    The times are at the reference speed if `scaled`, and as measured if not.
    """
    times, outputs = [], []
    before = probe_seconds() if scaled else None
    for op in ops:
        if before_op:
            before_op()
        seconds, outs = run_op(cli, op, os.path.join(outroot, op.name))
        if scaled:
            after = probe_seconds()
            seconds = at_reference_speed(seconds, before, after)
            before = after
        times.append(seconds)
        outputs.append(outs)
    return times, outputs


def fingerprint(outroot, outputs):
    """Digest of a round's files and printed output, independent of where it ran."""
    digest = hashlib.sha256()
    for base, _, files in sorted(os.walk(outroot)):
        for name in sorted(files):
            path = os.path.join(base, name)
            digest.update(os.path.relpath(path, outroot).encode())
            with open(path, "rb") as fh:
                digest.update(fh.read())
    digest.update(json.dumps(outputs).replace(outroot, "<out>").encode())
    return digest.hexdigest()


def setup_seconds(ops):
    files = sorted({op.scenario for op in ops})
    runs = []
    before = probe_seconds()
    for _ in range(SETUP_RUNS):
        done = subprocess.run([sys.executable, "-c", SETUP_PROBE, SRC, *files],
                              capture_output=True, text=True, check=True, timeout=120)
        after = probe_seconds()
        runs.append(at_reference_speed(float(done.stdout.strip().splitlines()[-1]), before, after))
        before = after
    return statistics.median(runs)


def op_medians(op_times):
    """Each operation's median over the rounds, from per-round lists of operation times."""
    return [statistics.median(repeats) for repeats in zip(*op_times)]


class Rounds:
    """Whole rounds of the same operations; round 0 is kept for the checks."""

    def __init__(self, cli, ops, work, scaled):
        self.cli, self.ops, self.work, self.scaled = cli, ops, work, scaled
        self.round_times, self.op_times = [], []  # per round: per op
        self.attempted = self.failed = 0
        self.outputs0 = self.digest0 = None
        self.outroot0 = os.path.join(work, "round0")
        self.mismatched = 0

    def run_one(self, before_op=None):
        """Run one round; returns its wall time."""
        r = len(self.round_times)
        outroot = os.path.join(self.work, f"round{r}")
        start = time.perf_counter()
        times, outputs = run_round(self.cli, self.ops, outroot, before_op, self.scaled)
        self.round_times.append(time.perf_counter() - start)
        self.op_times.append(times)
        self.attempted += len(self.ops)
        self.failed += sum(any(rc != 0 for rc, _ in outs) for outs in outputs)
        digest = fingerprint(outroot, outputs)
        if r == 0:
            self.outputs0, self.digest0 = outputs, digest
        else:
            self.mismatched += digest != self.digest0
            shutil.rmtree(outroot)
        return self.round_times[-1]

    def run(self, seconds):
        """Rounds until less than half a round of `seconds` is left.

        A run then measures `seconds` on average, however long a round is;
        stopping before a round that would overrun would leave up to a
        round of the run unmeasured, and the host's speed drifts over it.
        """
        start = time.perf_counter()
        while True:
            last = self.run_one()
            if time.perf_counter() - start + last / 2 > seconds:
                return

    def check(self, workload):
        rep = checks.Report()
        steps = checks.CHECKS[workload](self.ops, self.outputs0, self.outroot0, rep,
                                        checks.Solutions())
        rep.expect("rounds-identical", self.mismatched == 0,
                   f"{self.mismatched} round(s) wrote other bytes than round 0")
        return rep, steps


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "phagesim", "__init__.py")):
        print(f"perfbench: no phagesim package under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import phagesim
    from phagesim import cli

    work = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    try:
        ops = workloads.generate(args.workload, args.seed, os.path.join(work, "inputs"))
        rounds = Rounds(cli, ops, work, args.workload not in UNSCALED)
        if args.trace:
            metrics = traced(phagesim, rounds, args)
        else:
            setup_s = setup_seconds(ops)
            rounds.run(args.seconds)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        rep, steps = rounds.check(args.workload)
        if not args.trace:
            wall_s = sum(op_medians(rounds.op_times))
            metrics = {
                "setup_s": (setup_s, "s"),
                "wall_s": (wall_s, "s"),
                "op_p50_s": (statistics.median(t for r in rounds.op_times for t in r), "s"),
                "steps_per_s": (steps / wall_s, "steps/s"),
                "peak_rss_mb": (peak_rss_mb, "MB"),
            }
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for failure in rep.failures:
        print(f"check failed: {failure}")
    print(f"{args.workload} seed={args.seed}: {len(rounds.round_times)} round(s) of "
          f"{len(ops)} operation(s), {steps} integration steps per round")
    print(json.dumps({
        "correct": not rep.failures,
        "attempted": rounds.attempted,
        "failed": rounds.failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def traced(phagesim, rounds, args):
    """A cold round, then untraced and traced rounds in turn until --seconds.

    The cold round (first calls, lazy imports) counts on neither side; the
    overhead is the median of the paired differences, so a drift of the
    host's speed shifts both rounds of a pair alike.
    """
    import tracing

    tracer = tracing.Tracer()
    start = time.perf_counter()
    rounds.run_one()
    untraced, traced_wall = [], []  # round times, timed as the metrics are
    while True:
        pair = rounds.run_one()
        untraced.append(sum(rounds.op_times[-1]))
        tracer.install(phagesim)
        try:
            pair += rounds.run_one(tracer.next_op)
        finally:
            tracer.uninstall()
        traced_wall.append(sum(rounds.op_times[-1]))
        if time.perf_counter() - start + pair > args.seconds:
            break
    tracer.write(os.path.join(WORK, "traces", f"{args.workload}-seed{args.seed}.json"))
    metrics = tracer.metrics(len(traced_wall))
    metrics["trace.untraced_wall_s"] = (statistics.median(untraced), "s")
    metrics["trace.traced_wall_s"] = (statistics.median(traced_wall), "s")
    metrics["trace.overhead_s"] = (
        statistics.median(t - u for u, t in zip(untraced, traced_wall)), "s")
    return metrics


if __name__ == "__main__":
    sys.exit(main())
