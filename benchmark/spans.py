"""In-memory span tracer that wraps the package's public calls from outside.

A span is (name id, parent span index, start ns, end ns).  Spans are
appended in start order, so every span of one phase lies in one index
range.  A span's self time is its duration minus the durations of its
direct children.  Nothing in the package is edited: the tracer replaces
attributes on the package's modules and classes and puts them back when
it is closed.
"""

import time
from array import array
from collections import Counter

import numpy as np


def patch(patched, owner, attr, new):
    """owner.attr = new; the original goes on the list `patched` for restore()."""
    patched.append((owner, attr, owner.__dict__[attr]))
    setattr(owner, attr, new)


def restore(patched):
    while patched:
        owner, attr, original = patched.pop()
        setattr(owner, attr, original)


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.stack = [-1]
        self.counts = Counter()   # events of the current phase
        self.ranges = {}          # phase -> [(first span, last span + 1)]
        self.pass_counts = []     # one event Counter per traced pass
        self._patched = []

    def span_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def traced(self, fn, name, after=None):
        """fn wrapped in a span; after(result, args) runs outside the span."""
        nid = self.span_id(name)
        stack, start, end = self.stack, self.start, self.end
        push_name, push_parent = self.name.append, self.parent.append
        push_start, push_end = start.append, end.append
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            idx = len(start)
            push_name(nid)
            push_parent(stack[-1])
            push_end(0)
            stack.append(idx)
            push_start(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if after is not None:
                after(result, args)
            return result

        return wrapper

    def wrap(self, owner, attr, name, after=None):
        """Trace owner.attr: a module function, a method or a classmethod."""
        original = owner.__dict__[attr]
        if isinstance(original, classmethod):
            replacement = classmethod(self.traced(original.__func__, name, after))
        else:
            replacement = self.traced(original, name, after)
        patch(self._patched, owner, attr, replacement)

    def wrap_factory(self, owner, attr, name):
        """Trace the callables that owner.attr returns (the reference closure)."""
        original = owner.__dict__[attr]
        patch(self._patched, owner, attr, lambda *a, **k: self.traced(original(*a, **k), name))

    def close(self):
        restore(self._patched)

    def phase(self, phase, fn):
        """Run fn under a root span "bench.<phase>" and keep its span range."""
        self.counts = Counter()
        first = len(self.start)
        result = self.traced(fn, "bench." + phase)()
        self.ranges.setdefault(phase, []).append((first, len(self.start)))
        if phase == "pass":
            self.pass_counts.append(self.counts)
        return result

    def arrays(self):
        """(name id, parent, duration ns, self ns) of every span, as copies."""
        name = np.frombuffer(self.name, dtype=np.int32).copy()
        parent = np.frombuffer(self.parent, dtype=np.int32).copy()
        dur = np.frombuffer(self.end, dtype=np.int64) - np.frombuffer(self.start, dtype=np.int64)
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=dur.size)
        return name, parent, dur, dur - child

    def save(self, path):
        np.savez(path, names=np.array(self.names),
                 name=np.frombuffer(self.name, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 start_ns=np.frombuffer(self.start, dtype=np.int64),
                 end_ns=np.frombuffer(self.end, dtype=np.int64))


def install(tr, mw):
    """Wrap each layer's public entry points, named after its module."""
    h, plant, numerics, indi, lqg, alloc = (mw.harness, mw.plant, mw.numerics,
                                            mw.indi, mw.lqg, mw.allocator)

    def on_alloc(res, _args):
        c = tr.counts
        c["qp_iters"] += res.iterations
        c["qp_iters_max"] = max(c["qp_iters_max"], res.iterations)
        c["binding_ticks"] += len(res.active_set) > 0
        c["cap_hits"] += res.status == "IterationCap"
        c["optimal"] += res.status == "Optimal"

    def on_lqg(_u, args):
        tr.counts["clamp_ticks"] += bool(args[0].last["saturated"])

    tr.wrap(h.ScenarioConfig, "from_yaml", "cli.config_load")
    tr.wrap(h, "run_scenario", "harness.run")
    tr.wrap(h, "compare_controllers", "harness.run")
    tr.wrap(h, "_simulate", "harness.simulate")
    for fn in ("build_model", "build_basis", "build_limits", "build_simulator", "build_controller"):
        tr.wrap(h, fn, "harness.build")
    tr.wrap_factory(h, "reference_fn", "harness.ref")
    tr.wrap(h, "compute_metrics", "harness.metrics")
    tr.wrap(h, "emit_csv", "harness.emit_csv")
    tr.wrap(h, "design_lqr", "lqg.design_lqr")
    tr.wrap(h, "design_kalman", "lqg.design_kalman")
    tr.wrap(lqg, "solve_care", "numerics.care")
    tr.wrap(lqg.LqgController, "step", "lqg.step", after=on_lqg)
    tr.wrap(lqg, "integrate_step", "numerics.rk4")
    tr.wrap(plant.WingSimulator, "step", "plant.step")
    tr.wrap(plant.ActuatorBank, "step", "plant.actuator")
    tr.wrap(plant.NoiseModel, "step", "plant.noise")
    tr.wrap(plant, "gust_angle", "plant.gust")
    tr.wrap(plant, "integrate_step", "numerics.rk4")
    tr.wrap(numerics.SecondOrderFilter, "step", "numerics.filter")
    tr.wrap(indi.IndiController, "step", "indi.step")
    tr.wrap(indi, "assemble", "constraints.assemble")
    tr.wrap(indi, "rate_box", "constraints.rate_box")
    tr.wrap(indi, "allocate_qp", "allocator.alloc", after=on_alloc)
    tr.wrap(indi, "allocate_qp_virtual", "allocator.alloc", after=on_alloc)
    tr.wrap(alloc.ActiveSetQP, "solve", "allocator.solve")


# Per-pass call counts, from the spans of one pass.
CALL_COUNTS = {
    "plant.step_calls": "plant.step",
    "numerics.rk4_calls": "numerics.rk4",
    "numerics.filter_calls": "numerics.filter",
    "constraints.assemble_calls": "constraints.assemble",
    "constraints.fallbacks": "constraints.rate_box",
    "allocator.alloc_calls": "allocator.alloc",
    "indi.step_calls": "indi.step",
    "lqg.step_calls": "lqg.step",
    "harness.ref_calls": "harness.ref",
}
# Mean inclusive time per call over the traced passes, in us.
CALL_US = {
    "plant.step_us": "plant.step",
    "plant.actuator_us": "plant.actuator",
    "plant.noise_us": "plant.noise",
    "plant.gust_us": "plant.gust",
    "numerics.rk4_us": "numerics.rk4",
    "numerics.filter_us": "numerics.filter",
    "constraints.assemble_us": "constraints.assemble",
    "allocator.alloc_us": "allocator.alloc",
    "allocator.solve_us": "allocator.solve",
    "indi.step_us": "indi.step",
    "lqg.step_us": "lqg.step",
    "harness.ref_us": "harness.ref",
}
# Mean self time per call over the traced passes, in us.
SELF_US = {
    "plant.self_us": "plant.step",
    "allocator.prep_us": "allocator.alloc",
    "indi.self_us": "indi.step",
}
# Per-pass event counts, from the allocator results and the LQG state.
EVENT_COUNTS = {
    "allocator.qp_iters": "qp_iters",
    "allocator.qp_iters_max": "qp_iters_max",
    "allocator.binding_ticks": "binding_ticks",
    "allocator.cap_hits": "cap_hits",
    "lqg.clamp_ticks": "clamp_ticks",
}


def layer_metrics(tr, traced_walls, slowdown):
    """Per-layer metrics plus the failures of the tracer's own checks.

    traced_walls are the wall times of the traced passes; slowdown is the
    traced pass time over the untraced one.
    """
    name, _parent, dur, self_ns = tr.arrays()
    failures = []
    passes = tr.ranges["pass"]
    in_pass = np.zeros(dur.size, dtype=bool)
    for lo, hi in passes:
        in_pass[lo:hi] = True

    def mask(span, pass_only=True):
        m = name == tr._ids.get(span, -1)
        return m & in_pass if pass_only else m

    def mean(values, m, scale):
        n = int(m.sum())
        return float(values[m].sum()) / n / scale if n else 0.0

    per_pass = [np.bincount(name[lo:hi], minlength=len(tr.names)) for lo, hi in passes]
    if any(not np.array_equal(c, per_pass[0]) for c in per_pass[1:]):
        failures.append("trace: call counts differ between traced passes")
    if any(c != tr.pass_counts[0] for c in tr.pass_counts[1:]):
        failures.append("trace: allocator/LQG event counts differ between traced passes")
    calls = {span: int(n) for span, n in zip(tr.names, per_pass[0])}
    events = tr.pass_counts[0]

    out = {}
    for metric, span in CALL_COUNTS.items():
        out[metric] = (calls.get(span, 0), "count")
    for metric, key in EVENT_COUNTS.items():
        out[metric] = (events.get(key, 0), "count")
    alloc_calls = calls.get("allocator.alloc", 0)
    out["allocator.optimal_ratio"] = (events.get("optimal", 0) / alloc_calls if alloc_calls else 0.0,
                                      "ratio")
    for metric, span in CALL_US.items():
        out[metric] = (mean(dur, mask(span), 1e3), "us")
    for metric, span in SELF_US.items():
        out[metric] = (mean(self_ns, mask(span), 1e3), "us")
    steps = int(mask("plant.step").sum())
    loop_self = float(self_ns[mask("harness.simulate")].sum())
    out["harness.loop_self_us"] = (loop_self / steps / 1e3 if steps else 0.0, "us")
    out["harness.build_ms"] = (float(dur[mask("harness.build")].sum()) / len(passes) / 1e6, "ms")
    out["harness.metrics_ms"] = (mean(dur, mask("harness.metrics"), 1e6), "ms")
    out["harness.emit_csv_ms"] = (mean(dur, mask("harness.emit_csv"), 1e6), "ms")
    # set-up work: over the traced set-up repetitions and the passes
    out["numerics.care_ms"] = (mean(dur, mask("numerics.care", False), 1e6), "ms")
    design = mask("lqg.design_lqr", False) | mask("lqg.design_kalman", False)
    n_design = int(mask("lqg.design_lqr", False).sum())
    out["lqg.design_ms"] = (float(dur[design].sum()) / n_design / 1e6 if n_design else 0.0, "ms")
    out["cli.config_load_ms"] = (mean(dur, mask("cli.config_load", False), 1e6), "ms")

    out["trace.overhead_pct"] = (100.0 * (slowdown - 1.0), "%")

    return out, failures + self_time_failures(tr, traced_walls)


def self_time_failures(tr, traced_walls):
    """Self times are never negative and sum to the traced passes' wall time."""
    _name, _parent, _dur, self_ns = tr.arrays()
    failures = []
    if np.any(self_ns < 0):
        failures.append("trace: a span has negative self time")
    layer_sum = sum(float(self_ns[lo:hi].sum()) for lo, hi in tr.ranges["pass"]) / 1e9
    wall_sum = float(np.sum(traced_walls))
    if abs(layer_sum - wall_sum) > 0.03 * wall_sum:
        failures.append(f"trace: layer self times sum to {layer_sum:.4f} s, "
                        f"traced wall time is {wall_sum:.4f} s")
    return failures
