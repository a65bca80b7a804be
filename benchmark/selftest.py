"""Shows that every output check of the benchmark rejects a corrupted output.

    python3 benchmark/selftest.py

Runs the gust-run closed loop with its open-loop pair and the
maneuver-harsh INDI runs of ctrl-replay once, checks that the clean
outputs pass, then corrupts one thing at a time and checks that the
matching check fails.
Exit code 0 when every check behaves, 1 otherwise.
"""

import sys
import time
from array import array
from dataclasses import replace

import numpy as np

import run
import workloads
import reference as ref
import spans

CASES = []


def case(fn):
    CASES.append(fn)
    return fn


def corrupt(log, **arrays):
    """A copy of the run log with some arrays replaced."""
    return replace(log, **arrays)


def bumped(a, index, delta):
    a = a.copy()
    a[index] += delta
    return a


class Fixture:
    def __init__(self, mw):
        self.probe = workloads.Probe(mw)
        gust = workloads.GustRun(mw, 100, run.OUT_DIR)
        gust.setup_once()
        self.gust_cfg = gust.cfg
        self.gust_report = gust.run_pass(self.probe)
        logs = {log.controller: log for log in self.probe.logs}
        self.closed, self.open = logs["indi-qp-v"], logs["open-loop"]

        harsh = workloads.CtrlReplay(mw, 100, run.OUT_DIR)
        harsh.setup_once()
        harsh.prepare(self.probe)
        self.replay, self.harsh_cfg = harsh, harsh.cfg
        self.harsh, self.allocations = harsh.recorded, harsh.allocations
        self.probe.close()


@case
def plant_reference(f):
    peak = np.max(np.abs(f.closed.y_true_plant))
    bad = corrupt(f.closed, y_true_plant=bumped(f.closed.y_true_plant, (12000, 0), 1e-6 * peak))
    return ref.check_plant(f.gust_cfg, f.closed), ref.check_plant(f.gust_cfg, bad)


@case
def plant_reference_open_loop(f):
    bad = corrupt(f.open, y_true_plant=bumped(f.open.y_true_plant, (2500, 1), 1e-5))
    return ref.check_plant(f.gust_cfg, f.open), ref.check_plant(f.gust_cfg, bad)


def _limit_case(f, keyword, tick, servo, value):
    u = f.closed.u.copy()
    u[tick, servo] = value(u, tick)
    found = ref.check_limits(f.gust_cfg, corrupt(f.closed, u=u))
    return ref.check_limits(f.gust_cfg, f.closed), [m for m in found if keyword in m]


@case
def position_limit(f):
    return _limit_case(f, "|u|", 900, 0, lambda u, k: f.gust_cfg.limits.position + 1e-6)


@case
def rate_limit(f):
    # 80 deg/s over 15 ms allows 1.2 deg per tick
    return _limit_case(f, "|du|", 900, 0, lambda u, k: u[k - 1, 0] + 1.2 + 1e-6)


@case
def adjacency_limit(f):
    # servos 2 and 3 (pair index 1) may differ by 10 deg
    return _limit_case(f, "adjacent", 900, 2, lambda u, k: u[k, 1] - 10.0 - 1e-6)


@case
def shape_polynomial(f):
    bad = corrupt(f.closed, u=bumped(f.closed.u, (700, 5), 1e-6))
    return ref.check_polynomial(f.gust_cfg, f.closed), ref.check_polynomial(f.gust_cfg, bad)


@case
def reductions(f):
    bad = replace(f.gust_report, red_rms_mx=-0.5)
    return ref.check_reductions(f.gust_report), ref.check_reductions(bad)


@case
def binding_tick(f):
    log = f.harsh["indi-qp-v"]
    bad = corrupt(log, sat_flags=np.zeros_like(log.sat_flags))
    return ref.check_binding(log), ref.check_binding(bad)


def _binding(mode, f):
    return next(c for c in f.allocations if c[0] == mode and len(c[2].active_set) > 0)


@case
def oracle_objective(f):
    out_clean, out_bad = [], []
    for mode in ("qp", "qp-v"):
        _, problem, res = _binding(mode, f)
        out_clean += ref.check_allocation(f.harsh_cfg, mode, problem, res)[0]
        # a feasible but suboptimal point: halfway to zero
        bad = replace(res, delta_u=0.5 * res.delta_u,
                      delta_u_virtual=None if res.delta_u_virtual is None else 0.5 * res.delta_u_virtual)
        out_bad.append(ref.check_allocation(f.harsh_cfg, mode, problem, bad)[0])
    return out_clean, [] if not all(out_bad) else sum(out_bad, [])


@case
def oracle_violation(f):
    _, problem, res = _binding("qp", f)
    row = res.active_set[0]
    bad = replace(res, delta_u=res.delta_u + 1e-6 * problem.ineq.A[row])
    return [], ref.check_allocation(f.harsh_cfg, "qp", problem, bad)[0]


@case
def replay_bit_for_bit(f):
    u = f.harsh["indi-qp-v"].u
    flipped = u.copy()
    flipped.view(np.int64)[1000, 4] ^= 1   # last bit of one command
    clean = f.replay.check(None, {"indi-qp-v": u.copy()})["indi-qp-v"]
    bad = f.replay.check(None, {"indi-qp-v": flipped})["indi-qp-v"]
    return clean, [m for m in bad if m.startswith("replay:")]


@case
def same_outputs_every_pass(f):
    """A pass whose CSV differs from the first pass's fails its operation."""

    class Stub:
        ops = ("indi-qp-v",)
        csv = [b"t,u_1\n0.0,1.0\n", b"t,u_1\n0.0,1.0\n", b"t,u_1\n0.0,1.5\n"]

        def digests(self, probe, result):
            return {"indi-qp-v": workloads._sha(result)}

    stub = Stub()
    runner = run.Runner(stub, workloads.Probe.__new__(workloads.Probe))
    runner.probe.logs, runner.probe.tick_ns = [], array("q")
    for data in stub.csv[:2]:
        runner.one_pass(lambda: data)
    clean = ["differs"] if runner.counts()[1] else []
    runner.one_pass(lambda: stub.csv[2])
    return clean, runner.messages if runner.counts() == (3, 1) and runner.check_failed else []


@case
def trace_self_time(f):
    tr = spans.Tracer()
    work = tr.traced(lambda: sum(range(200000)), "work")
    walls = []
    for _ in range(2):
        t0 = time.perf_counter()
        tr.phase("pass", work)
        walls.append(time.perf_counter() - t0)
    clean = spans.self_time_failures(tr, walls)
    tr.parent[1] = -1                 # a span that lost its parent is counted twice
    lost = spans.self_time_failures(tr, walls)
    tr.parent[1] = 0
    tr.end[1] = tr.end[0] + 10 ** 9   # a child that outlives its parent
    late = spans.self_time_failures(tr, walls)
    return clean, lost + late if lost and late else []


def main():
    mw = run.import_package()
    run.OUT_DIR.mkdir(exist_ok=True)
    f = Fixture(mw)
    bad = 0
    for fn in CASES:
        clean, corrupted = fn(f)
        ok = not clean and bool(corrupted)
        bad += not ok
        detail = corrupted[0] if corrupted else "corrupted output passed"
        if clean:
            detail = f"clean output failed: {clean[0]}"
        print(f"{'ok  ' if ok else 'FAIL'} {fn.__name__}: {detail}")
    print(f"{len(CASES) - bad} of {len(CASES)} checks reject their corrupted output")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
