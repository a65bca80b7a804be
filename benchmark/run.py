"""morphwing benchmark: one workload per invocation, result as JSON on the last line.

    python3 benchmark/run.py --workload gust-run --seed 100 --seconds 50 --trace 0

--workload all runs the workloads in turn in one process, each for
--seconds, and prints one result line per workload.
--trace 0 measures the end-to-end metrics untraced.  --trace 1 runs
untraced and traced passes in turn and reports the per-layer metrics and
the tracing overhead.  Run from the root of a source checkout; the
package is imported from its src/.
Exit code 0 when every operation passed its checks, 1 when one failed,
2 when the package cannot be found or the arguments are bad.
"""

import os

# One BLAS thread, set before numpy is imported anywhere.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 5
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
                "import morphwing.cli; print(time.perf_counter() - t)")


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("gust-run", "ctrl-replay", "all"),
                   help="one workload, or all in turn in this process")
    p.add_argument("--seed", type=int, default=100, help="noise seed of the workload's config")
    p.add_argument("--seconds", type=float, default=50.0, help="measuring time")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def import_package():
    """Import morphwing from this checkout's src/ and nowhere else."""
    if not (SRC / "morphwing" / "__init__.py").is_file():
        print(f"error: no morphwing package under {SRC}; run from a source checkout",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import morphwing
    from morphwing import allocator, harness, indi, lqg, numerics, plant
    if Path(morphwing.__file__).resolve().parent != SRC / "morphwing":
        print(f"error: morphwing imported from {morphwing.__file__}, not from {SRC}",
              file=sys.stderr)
        sys.exit(2)
    return SimpleNamespace(allocator=allocator, harness=harness, indi=indi, lqg=lqg,
                           numerics=numerics, plant=plant)


def child_import_seconds():
    """Import time of the CLI module in a fresh interpreter."""
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)], capture_output=True,
                         text=True, check=True, timeout=120)
    return float(out.stdout.strip().splitlines()[-1])


class Runner:
    """Runs passes; keeps their wall times, indi-qp-v tick times, digests and failures.

    The first pass's outputs are checked once the timing is over, and
    every later pass must reproduce them exactly.
    """

    def __init__(self, workload, probe):
        self.wl = workload
        self.probe = probe
        self.first = None          # (result, logs) of the first pass
        self.reference = None      # output digests of the first pass
        self.changed = []          # per completed pass: ops whose outputs moved
        self.raised = 0            # passes that raised
        self.messages = []
        self.check_failed = False
        self.failed_ops = set()

    def one_pass(self, run):
        """Run one pass; returns (wall s, indi-qp-v step times ns, result)."""
        probe = self.probe
        probe.logs.clear()
        del probe.tick_ns[:]
        t0 = time.perf_counter_ns()
        try:
            result = run()
        except Exception:
            self.raised += 1
            self.messages.append(traceback.format_exc(limit=3))
            return None
        t1 = time.perf_counter_ns()
        ticks = np.frombuffer(probe.tick_ns, dtype=np.int64).copy()
        digests = self.wl.digests(probe, result)
        if self.reference is None:
            self.reference = digests
        changed = {op for op in self.wl.ops if digests.get(op) != self.reference.get(op)}
        if changed:
            self.check_failed = True
            self.messages.append(f"outputs differ from the first pass: {sorted(changed)}")
        self.changed.append(changed)
        return (t1 - t0) / 1e9, ticks, result

    def timed(self, seconds, run, between=None):
        """Passes for about `seconds`; between() runs after each pass.

        A pass is not started when less than half a pass's time is left.
        """
        passes = []
        t_end = time.perf_counter() + seconds
        while True:
            left = t_end - time.perf_counter()
            if passes and left < 0.5 * statistics.median(p[0] for p in passes):
                break
            done = self.one_pass(run)
            if done is None:
                break
            if self.first is None:
                self.first = (done[2], list(self.probe.logs))
            passes.append(done[:2])
            if between is not None:
                between()
        if not passes:
            raise SystemExit("no pass completed:\n" + "".join(self.messages))
        return passes

    def fail(self, op, msg):
        """A check failed on op's outputs: op fails in every pass."""
        self.failed_ops.add(op)
        self.check_failed = True
        self.messages.append(msg)

    def check_first(self):
        """Check the first pass's outputs; a failing op fails in every pass."""
        result, self.probe.logs = self.first
        for op, msgs in self.wl.check(self.probe, result).items():
            for msg in msgs:
                self.fail(op, msg)
        self.probe.logs = []

    def counts(self):
        ops = self.wl.ops
        attempted = len(ops) * (len(self.changed) + self.raised)
        failed = len(ops) * self.raised + sum(len(c | self.failed_ops) for c in self.changed)
        return attempted, failed


def setup_seconds(wl):
    """One set-up: CLI import in a fresh interpreter, then config load and builds."""
    imported = child_import_seconds()
    t0 = time.perf_counter()
    wl.setup_once()
    return imported + time.perf_counter() - t0


def end_to_end(wl, runner, probe, seconds):
    """Set-ups spread over the first passes, then the end-to-end metrics.

    tick_p50_us is the median over the ticks of each tick's least time
    over the passes, which filters out other tenants' load; tick_p99_us
    is taken over every timed step, that load included.
    """
    reps = [setup_seconds(wl)]
    wl.prepare(probe)

    def more_setup():
        if len(reps) < SETUP_REPEATS:
            reps.append(setup_seconds(wl))

    passes = runner.timed(seconds, lambda: wl.run_pass(probe), between=more_setup)
    while len(reps) < SETUP_REPEATS:
        more_setup()
    runner.check_first()
    wall_s = statistics.median(p[0] for p in passes)
    ticks_us = np.vstack([p[1] for p in passes]) / 1e3
    p50 = float(np.median(np.min(ticks_us, axis=0)))
    p99 = float(np.percentile(ticks_us, 99))
    print(f"# {len(passes)} timed passes; {ticks_us.shape[1]} indi-qp-v ticks per pass "
          f"({ticks_us.size} timed steps); {len(reps)} set-ups")
    return {
        "setup_s": (statistics.median(reps), "s"),
        "wall_s": (wall_s, "s"),
        "sim_s_per_s": (wl.sim_seconds() / wall_s, "s/s"),
        "tick_p50_us": (p50, "us"),
        "tick_p99_us": (p99, "us"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
    }


def per_layer(wl, runner, probe, seconds, mw):
    """Traced set-ups, then untraced and traced passes in turn.

    Alternating the two kinds of pass exposes both to the same stretches
    of host load, so their ratio measures the tracer's overhead.
    """
    import spans
    tracer = spans.Tracer()
    spans.install(tracer, mw)
    try:
        for _ in range(SETUP_REPEATS):
            tracer.phase("setup", wl.setup_once)
    finally:
        tracer.close()
    wl.prepare(probe)
    kinds = []

    def alternate():
        kinds.append(len(kinds) % 2 == 1)
        if not kinds[-1]:
            return wl.run_pass(probe)
        spans.install(tracer, mw)
        try:
            return tracer.phase("pass", lambda: wl.run_pass(probe))
        finally:
            tracer.close()

    passes = runner.timed(seconds, alternate)
    untraced = [p for p, traced in zip(passes, kinds) if not traced]
    traced = [p for p, traced in zip(passes, kinds) if traced]
    if not traced:                # the time allowed a single pass
        done = runner.one_pass(alternate)
        if done is None:
            raise SystemExit("the traced pass failed:\n" + "".join(runner.messages))
        traced.append(done[:2])
    runner.check_first()
    walls = [p[0] for p in traced]
    slowdown = statistics.median(walls) / statistics.median(p[0] for p in untraced)
    metrics, failures = spans.layer_metrics(tracer, walls, slowdown)
    if failures:
        runner.check_failed = True
        runner.failed_ops.update(wl.ops)
        runner.messages += failures
    tracer.save(OUT_DIR / f"spans-{wl.name}.npz")
    print(f"# {len(untraced)} untraced and {len(traced)} traced passes; "
          f"{len(tracer.start)} spans in .bench_out/spans-{wl.name}.npz")
    return metrics


def run_workload(name, args, mw, workloads):
    """One workload's run; prints its metrics and result line, returns failed ops."""
    wl = workloads.WORKLOADS[name](mw, args.seed, OUT_DIR)
    probe = workloads.Probe(mw)
    runner = Runner(wl, probe)
    try:
        if args.trace:
            metrics = per_layer(wl, runner, probe, args.seconds, mw)
        else:
            metrics = end_to_end(wl, runner, probe, args.seconds)
    finally:
        probe.close()
    attempted, failed = runner.counts()
    for msg in runner.messages:
        print(f"# FAILED {msg.rstrip()}")
    for metric, (value, unit) in metrics.items():
        print(f"{name} {metric} {value:.6g} {unit}")
    print(f"{name} attempted {attempted} failed {failed}")
    print(json.dumps({
        "correct": not runner.check_failed,
        "attempted": attempted,
        "failed": failed,
        "metrics": {metric: {"value": value, "unit": unit}
                    for metric, (value, unit) in metrics.items()},
    }))
    return failed


def main():
    args = parse_args()
    mw = import_package()
    import workloads
    OUT_DIR.mkdir(exist_ok=True)
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    failed = [run_workload(name, args, mw, workloads) for name in names]
    return 1 if any(failed) else 0


if __name__ == "__main__":
    sys.exit(main())
