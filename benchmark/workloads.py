"""The workloads: the configs made from the seed, one pass of each, and
the checks on what a pass returns.

An operation is one scenario simulation (closed loop or the open-loop
pair) or one controller replay.  A pass runs a fixed list of operations,
so every pass attempts the same number.
"""

import hashlib
import time
from array import array
from dataclasses import replace

import numpy as np
import yaml

import reference as ref
from spans import patch, restore

# Overrides of the ScenarioConfig defaults, written out as the YAML a
# user would hand to `morphwing run` / `morphwing compare`.
GUST_RUN = {"noise": {"enabled": True}}
MANEUVER_HARSH = {
    "duration": 20.0,
    "command": {"profile": "fy+35%", "t_start": 10.0, "rate": 2.0},
    "gust": {"enabled": False},
    "noise": {"enabled": True},
    "fault": {"enabled": True},
    "actuators": {"backlash": True},
}
HARSH_CONTROLLERS = ("indi-qp-v", "indi-qp", "lqg")
ALLOCATOR_MODE = {"indi-qp-v": "qp-v", "indi-qp": "qp"}
ORACLE_EVERY = 10


def config_yaml(overrides, seed):
    data = {k: dict(v) if isinstance(v, dict) else v for k, v in overrides.items()}
    data.setdefault("noise", {})["seed"] = seed
    return yaml.safe_dump(data, sort_keys=False)


class Probe:
    """Hooks kept for the whole run, traced or not.

    They keep the run logs that the harness builds (the open-loop pair is
    not returned by the public API), time every indi-qp-v step, and, when
    asked, keep the allocation problems with their results.
    """

    def __init__(self, mw):
        self.logs = []
        self.tick_ns = array("q")
        self.allocations = None
        self._patched = []
        h, indi = mw.harness, mw.indi
        simulate = h._simulate

        def keep_log(cfg):
            log = simulate(cfg)
            self.logs.append(log)
            return log

        clock, ticks = time.perf_counter_ns, self.tick_ns
        step = indi.IndiController.__dict__["step"]

        def timed_step(ctrl, y_meas, y_ref):
            t0 = clock()
            u = step(ctrl, y_meas, y_ref)
            t1 = clock()
            if ctrl.mode == "qp-v":
                ticks.append(t1 - t0)
            return u

        patch(self._patched, h, "_simulate", keep_log)
        patch(self._patched, indi.IndiController, "step", timed_step)
        self._indi = indi

    def capture_allocations(self):
        """Keep (mode, problem, result) of every allocation until release()."""
        self.allocations, self._capture = [], []
        for attr, mode in (("allocate_qp", "qp"), ("allocate_qp_virtual", "qp-v")):
            alloc = self._indi.__dict__[attr]

            def keep(problem, *args, _alloc=alloc, _mode=mode, **kwargs):
                result = _alloc(problem, *args, **kwargs)
                self.allocations.append((_mode, problem, result))
                return result

            patch(self._capture, self._indi, attr, keep)

    def release(self):
        restore(self._capture)

    def close(self):
        restore(self._patched)


def _sha(*parts):
    h = hashlib.sha256()
    for p in parts:
        h.update(p if isinstance(p, bytes) else str(p).encode())
    return h.hexdigest()


def _report_text(report):
    return repr([float(v) for v in report.reductions()])


def _closed_loop_checks(cfg, log, binding):
    """Limits and shape of one closed-loop run; binding: expect a binding tick."""
    indi = log.controller.startswith("indi")
    out = ref.check_limits(cfg, log, rate_and_adjacency=indi)
    if indi and binding:
        out += ref.check_binding(log)
    if log.controller == "indi-qp-v":
        out += ref.check_polynomial(cfg, log)
    return out


class Workload:
    """One workload: set-up, one pass, digests of its outputs, checks."""

    controllers = ()        # built during set-up
    simulators = 0          # plant simulators built during set-up

    def __init__(self, mw, seed, out_dir):
        self.h = mw.harness
        self.text = config_yaml(self.overrides, seed)
        self.out_dir = out_dir
        self.cfg = None

    def setup_once(self):
        """Config load and every build the workload's operations need."""
        h = self.h
        cfg = h.ScenarioConfig.from_yaml(self.text)
        model = h.build_model(cfg)
        basis = h.build_basis(model.locations, cfg.plant.half_span, cfg.q)
        limits = h.build_limits(cfg)
        for _ in range(self.simulators):
            h.build_simulator(cfg, model)
        for name in self.controllers:
            h.build_controller(replace(cfg, controller=name), model, basis, limits)
        self.cfg, self.model, self.basis, self.limits = cfg, model, basis, limits

    def prepare(self, probe):
        """Untimed work between set-up and the first pass."""

    def sim_seconds(self):
        """Simulated seconds that one pass covers."""
        raise NotImplementedError


class GustRun(Workload):
    name = "gust-run"
    overrides = GUST_RUN
    ops = ("indi-qp-v", "open-loop")
    controllers = ("indi-qp-v",)
    simulators = 2

    def run_pass(self, probe):
        log, report = self.h.run_scenario(self.cfg)
        self.h.emit_csv(log, self.out_dir / f"run_{self.cfg.controller}.csv")
        return report

    def digests(self, probe, report):
        logs = {log.controller: log for log in probe.logs}
        csv = (self.out_dir / f"run_{self.cfg.controller}.csv").read_bytes()
        return {
            "indi-qp-v": _sha(ref.log_digest(logs["indi-qp-v"]), hashlib.sha256(csv).hexdigest(),
                              _report_text(report)),
            "open-loop": _sha(ref.log_digest(logs["open-loop"])),
        }

    def check(self, probe, report):
        logs = {log.controller: log for log in probe.logs}
        closed, open_ = logs["indi-qp-v"], logs["open-loop"]
        return {
            "indi-qp-v": (ref.check_plant(self.cfg, closed) + ref.check_reductions(report)
                          + _closed_loop_checks(self.cfg, closed, binding=False)),
            "open-loop": ref.check_plant(self.cfg, open_),
        }

    def sim_seconds(self):
        return 2 * self.cfg.duration


def oracle_failures(cfg, allocations, mode):
    """Every binding and every ORACLE_EVERY-th captured solve against the oracle."""
    solves = [c for c in allocations if c[0] == mode]
    sample = ref.oracle_sample(solves, ORACLE_EVERY)
    worst_gap = worst_viol = -np.inf
    off = 0
    for _, problem, result in sample:
        msgs, gap, viol = ref.check_allocation(cfg, mode, problem, result)
        off += bool(msgs)
        worst_gap, worst_viol = max(worst_gap, gap), max(worst_viol, viol)
    summary = (f"{len(sample)} of {len(solves)} {mode} solves checked, "
               f"worst gap {worst_gap:.2e}, worst violation {worst_viol:.2e}")
    print(f"# oracle {mode}: {summary}")
    return [f"oracle: {off} off the oracle; {summary}"] if off or not sample else []


class CtrlReplay(Workload):
    """The maneuver-harsh scenario: `fy+35%` with noise, fault and backlash.

    Before the first pass it runs `compare_controllers` over the three
    controllers once (untimed), as `morphwing compare` does, with the
    allocations captured, and keeps the run logs and reports.  A pass
    replays each closed-loop run's tick inputs through a freshly built
    controller with no plant.
    """

    name = "ctrl-replay"
    overrides = MANEUVER_HARSH
    ops = HARSH_CONTROLLERS
    controllers = HARSH_CONTROLLERS

    def prepare(self, probe):
        probe.logs.clear()
        probe.capture_allocations()
        try:
            self.reports = self.h.compare_controllers(self.cfg, HARSH_CONTROLLERS)
        finally:
            probe.release()
        self.recorded = {log.controller: log for log in probe.logs}
        self.allocations, probe.allocations = probe.allocations, None

    def run_pass(self, probe):
        return {name: self.replay(self.recorded[name]) for name in HARSH_CONTROLLERS}

    def replay(self, log):
        """Step a freshly built controller through a closed-loop run's tick inputs.

        INDI gets the filtered loads and the reference, the Kalman LQG the
        raw loads and the reference: the arguments the harness passed.
        """
        ctrl = self.h.build_controller(replace(self.cfg, controller=log.controller),
                                       self.model, self.basis, self.limits)
        y_meas = log.y_filt if log.controller.startswith("indi") else log.y_raw
        y_ref = log.y_ref
        u = np.empty_like(log.u)
        for k in range(u.shape[0]):
            u[k] = ctrl.step(y_meas[k], y_ref[k])
        return u

    def digests(self, probe, commands):
        return {name: _sha(u.tobytes()) for name, u in commands.items()}

    def check(self, probe, commands):
        """The replays, and the recorded compare run they reproduce."""
        failures = {}
        for name, u in commands.items():
            rec = self.recorded[name]
            msgs = [] if np.array_equal(u, rec.u) else [
                f"replay: {name} commands differ from the closed-loop run on "
                f"{int(np.sum(np.any(u != rec.u, axis=1)))} ticks"]
            msgs += _closed_loop_checks(self.cfg, rec, binding=True)
            if name.startswith("indi"):
                msgs += ref.check_reductions(self.reports[name])
                msgs += oracle_failures(self.cfg, self.allocations, ALLOCATOR_MODE[name])
            failures[name] = msgs
        return failures

    def sim_seconds(self):
        return sum(self.recorded[name].t.size * self.cfg.dt_ctrl for name in HARSH_CONTROLLERS)


WORKLOADS = {w.name: w for w in (GustRun, CtrlReplay)}
