"""Incremental controller and bound-certificate tests."""

from collections import deque

import numpy as np
import pytest

from morphwing import harness, indi
from morphwing.allocator import AllocationProblem, allocate_qp, allocate_qp_virtual
from morphwing.constraints import InputLimits, assemble
from morphwing.errors import (
    ConfigError, DimensionMismatch, GainNotContractive, NotHurwitz, RankDeficient)
from morphwing.indi import (
    IndiController,
    LagModel,
    certify_bounds,
    default_lag_model,
    recursion_terms,
)
from morphwing.numerics import SecondOrderFilter
from morphwing.plant import SERVO_OMEGA, SERVO_ZETA
from morphwing.shapes import build_basis


def make_limits(m=12, dt=0.015):
    return InputLimits(
        u_min=-30.0 * np.ones(m), u_max=30.0 * np.ones(m),
        rate_min=-80.0 * np.ones(m), rate_max=80.0 * np.ones(m),
        u_adj=np.array([55.0 if i % 2 == 0 else 10.0 for i in range(m - 1)]),
        dt=dt,
    )


def make_b_eff(m=12, fy=2.8):
    locs = np.linspace(0.15, 1.8, m)
    row = fy * (1.0 - 0.1 * (locs / 1.8 - 0.5))
    return np.vstack([row, row * locs]), locs


def capture_allocations(monkeypatch):
    """Every allocation result of the controllers' ticks, in order, from here on."""
    results = []
    for name in ("allocate_qp", "allocate_qp_virtual"):
        def keep(problem, *args, _alloc=getattr(indi, name), **kwargs):
            results.append(_alloc(problem, *args, **kwargs))
            return results[-1]

        monkeypatch.setattr(indi, name, keep)
    return results


def first_nu_c(K, y_meas, y_ref, dt=0.015):
    """nu_c = y_ref - K e of a fresh controller's first tick, where e = dt (y_meas - y_ref)."""
    K = np.atleast_2d(K)
    B, _ = make_b_eff()
    ctrl = IndiController(B[:len(K)], K, make_limits(dt=dt), dt, mode="pi", lag_model=None)
    ctrl.step(np.asarray(y_meas, dtype=float), np.asarray(y_ref, dtype=float))
    return ctrl.last["nu_c"]


class TestPseudoControl:
    def test_zero_error_passes_reference_rate(self):
        # dyadic gain and period: the folded map's rounding cannot hide behind them
        y_r_dot = np.array([3.0, -1.0])
        out = first_nu_c(np.diag([0.125, 0.125]), y_r_dot, y_r_dot, dt=2.0 ** -6)
        assert np.array_equal(out, y_r_dot)

    def test_default_gain_example(self):
        out = first_nu_c(np.diag([0.1, 0.1]), np.array([10.0, -20.0]) / 0.015, np.zeros(2))
        assert np.allclose(out, [-1.0, 2.0])

    def test_positive_error_drives_negative_command(self):
        # constant reference: nu_c must push the output back down
        out = first_nu_c(np.array([[0.2]]), [5.0 / 0.015], [0.0])
        assert out[0] < 0.0


class StepT:
    """lag.T stepped on [state; input], one column per channel, from rest."""

    def __init__(self, lag, channels):
        self.T, self.xv = lag.T, np.zeros((len(lag.T), channels))
        self.last_output = np.zeros(channels)

    def step(self, v):
        self.xv[-1] = v
        r = self.T @ self.xv
        self.xv[:-1] = r[:-1]
        self.last_output = r[-1]
        return self.last_output


class TestLagModel:
    def test_delay_shifts_by_exact_ticks(self):
        lag = StepT(LagModel([], delay_ticks=3), channels=1)
        outs = [lag.step(np.array([float(k == 0)]))[0] for k in range(6)]
        assert outs == [0.0, 0.0, 0.0, 1.0, 0.0, 0.0]

    def test_filters_applied_in_cascade(self):
        f = SecondOrderFilter(0.71, 16.52, 0.015)
        lag = StepT(LagModel([SecondOrderFilter(0.71, 16.52, 0.015)], delay_ticks=0), channels=2)
        x = np.array([1.0, 1.0])
        for _ in range(10):
            expected = f.step(1.0)
            got = lag.step(x)
        assert np.allclose(got, expected)

    def test_default_model_dc_gain_is_unity(self):
        lag = StepT(default_lag_model(0.015, SERVO_ZETA, SERVO_OMEGA, 1,
                                      with_measurement_filter=True), channels=2)
        v = np.array([2.0, -3.0])
        out = v
        for _ in range(3000):
            out = lag.step(v)
        assert np.allclose(out, v, atol=1e-6)

    def test_measurement_filter_optional(self):
        with_f = default_lag_model(0.015, SERVO_ZETA, SERVO_OMEGA, 1, with_measurement_filter=True)
        without = default_lag_model(0.015, SERVO_ZETA, SERVO_OMEGA, 1,
                                    with_measurement_filter=False)
        assert len(with_f.filters) == len(without.filters) + 1


class CascadeLag:
    """The lag chain stepped section by section: a deque delay, then SecondOrderFilter.step.

    The oracle of the compiled LagModel's map T (stepped by StepT).
    Channels that are one wide run on scalars, as SecondOrderFilter does.
    """

    def __init__(self, filters, delay_ticks, channels):
        shape = (channels,) if channels > 1 else ()
        self.filters = [SecondOrderFilter(f.zeta, f.omega, f.dt, channels=channels)
                        for f in filters]
        self.delay = deque(np.zeros(shape) for _ in range(delay_ticks))
        self.last_output = np.zeros(shape)

    def step(self, v):
        v = np.asarray(v, dtype=float)
        if self.delay:
            self.delay.append(v.copy())
            v = self.delay.popleft()
        for f in self.filters:
            v = f.step(v)
        self.last_output = np.asarray(v, dtype=float)
        return self.last_output


@pytest.mark.parametrize("channels", [1, 2])
@pytest.mark.parametrize("with_meas", [True, False])
@pytest.mark.parametrize("delay_ticks", [0, 1, 2, 3])
def test_compiled_lag_matches_section_cascade(delay_ticks, with_meas, channels):
    model = default_lag_model(0.015, SERVO_ZETA, SERVO_OMEGA, delay_ticks,
                              with_measurement_filter=with_meas)
    lag, oracle = StepT(model, channels), CascadeLag(model.filters, delay_ticks, channels)
    assert model.delay_ticks == delay_ticks
    assert model.T.shape == (delay_ticks + 2 * len(model.filters) + 1,) * 2
    rng = np.random.default_rng(100 * delay_ticks + 10 * with_meas + channels)
    shape = (channels,) if channels > 1 else ()
    for k in range(300):
        v = rng.uniform(-50.0, 50.0, size=shape)
        got, want = lag.step(v), oracle.step(v)
        assert got.shape == (channels,)
        assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want))), k
        assert np.array_equal(lag.last_output, got)


class ReferenceTick:
    """The INDI tick formula by formula, hedging with CascadeLag: the tick map's oracle.

    It reads only the controller's constants.  The lag steps on each command
    at the end of its tick, and the QP is compiled afresh from each problem.
    """

    def __init__(self, ctrl):
        self.ctrl, (p, m) = ctrl, ctrl.B_eff.shape
        self.lag = CascadeLag(ctrl.lag.filters, ctrl.lag.delay_ticks, p)
        self.e, self.u, self.warm = np.zeros(p), np.zeros(m), ()

    def step(self, y_meas, y_ref):
        c = self.ctrl
        self.e = self.e + c.dt * (y_meas - y_ref)
        nu_c = y_ref - c.K @ self.e
        hedge = c.B_eff @ self.u - self.lag.last_output
        problem = AllocationProblem(B_eff=c.B_eff, target=nu_c - y_meas - hedge, sigma=c.sigma,
                                    u0=self.u, ineq=assemble(c.limits, self.u))
        res = (allocate_qp_virtual(problem, c.basis.Phi, warm_start=self.warm) if c.mode == "qp-v"
               else allocate_qp(problem, warm_start=self.warm))
        self.warm, self.u = res.active_set, self.u + res.delta_u
        self.lag.step(c.B_eff @ self.u)
        return self.u, bool(res.active_set)


@pytest.mark.parametrize("controller, binding_ticks", [("indi-qp-v", 108), ("indi-qp", 116)])
def test_controller_with_compiled_lag_matches_cascade_lag(monkeypatch, controller,
                                                          binding_ticks):
    # the fy+35% harsh run (noise, fault, backlash): its tick inputs replayed
    # through a fresh controller, whose tick map holds the compiled lag model,
    # and through the tick formula by formula hedging with the section-by-section
    # cascade, give the same commands
    cfg = harness.mla_config("fy+35%")
    cfg.controller = controller
    cfg.noise.enabled = cfg.fault.enabled = cfg.actuators.backlash = True
    ticks, step = [], indi.IndiController.step

    def keep(ctrl, y_meas, y_ref):
        ticks.append((np.array(y_meas, dtype=float), np.array(y_ref, dtype=float)))
        return step(ctrl, y_meas, y_ref)

    monkeypatch.setattr(indi.IndiController, "step", keep)
    log, _ = harness.run_scenario(cfg, pair_open_loop=False)
    monkeypatch.undo()
    model = harness.build_model(cfg)
    basis = harness.build_basis(model.locations, cfg.plant.half_span, cfg.q)
    limits = harness.build_limits(cfg)
    compiled = harness.build_controller(cfg, model, basis, limits)
    cascade = ReferenceTick(harness.build_controller(cfg, model, basis, limits))
    assert compiled.lag.delay_ticks == round(cfg.actuators.delay / cfg.dt_ctrl)

    results = capture_allocations(monkeypatch)
    u_compiled = [compiled.step(y_meas, y_ref) for y_meas, y_ref in ticks]
    binding_compiled = sum(bool(res.active_set) for res in results)
    u_cascade, binding = zip(*(cascade.step(y_meas, y_ref) for y_meas, y_ref in ticks))
    assert np.array_equal(u_compiled, log.u)
    worst = np.max(np.abs(np.subtract(u_compiled, u_cascade)))
    assert worst <= 5e-9, worst
    assert binding_compiled == sum(binding) == binding_ticks


class TestControllerStep:
    def test_gain_must_be_stabilizing(self):
        B, locs = make_b_eff()
        with pytest.raises(NotHurwitz):
            IndiController(B, np.diag([-0.1, 0.1]), make_limits(), 0.015,
                           mode="qp", lag_model=None)

    def test_virtual_rank_loss_raises_at_construction(self):
        # q = 1: B_eff Phi is 2 x 1, so the two loads cannot be set apart
        B, locs = make_b_eff()
        with pytest.raises(RankDeficient):
            IndiController(B, np.diag([0.1, 0.1]), make_limits(), 0.015,
                           mode="qp-v", basis=build_basis(locs, 1.8, 1), lag_model=None)

    @pytest.mark.parametrize("mode, basis", [("qp_v", True), ("QP", False), ("", False),
                                             ("qp-v", False)])
    def test_unknown_mode_or_missing_basis_raises_at_construction(self, mode, basis):
        # only "pi", "qp" and "qp-v" exist, and "qp-v" needs a shape basis
        B, locs = make_b_eff()
        with pytest.raises(ConfigError):
            IndiController(B, np.diag([0.1, 0.1]), make_limits(), 0.015, mode=mode,
                           basis=build_basis(locs, 1.8, 5) if basis else None, lag_model=None)

    @pytest.mark.parametrize("mode, sigma", [("qp", 0.0), ("qp-v", 0.0), ("qp-v", 1.0)])
    def test_sigma_outside_unit_interval_raises_at_construction(self, mode, sigma):
        # the compiled QP needs H = B'B + sigma I positive definite
        B, locs = make_b_eff()
        with pytest.raises(DimensionMismatch):
            IndiController(B, np.diag([0.1, 0.1]), make_limits(), 0.015, mode=mode,
                           basis=build_basis(locs, 1.8, 5), sigma=sigma, lag_model=None)

    def test_on_target_holds_command(self):
        # measurement equals the pseudo-control: nothing should move
        B, locs = make_b_eff()
        ctrl = IndiController(B, np.diag([0.1, 0.1]), make_limits(), 0.015,
                              mode="qp", lag_model=None)
        u = ctrl.step(np.zeros(2), np.zeros(2))
        assert np.allclose(u, 0.0, atol=1e-12)

    def test_step_command_moves_in_effectiveness_direction(self):
        B, locs = make_b_eff()
        basis = build_basis(locs, 1.8, 5)
        ctrl = IndiController(B, np.diag([0.1, 0.1]), make_limits(), 0.015,
                              mode="qp-v", basis=basis, lag_model=None)
        u = ctrl.step(np.zeros(2), np.array([50.0, 0.0]))
        assert float(B[0] @ u) > 0.0

    def test_perfect_static_plant_reaches_target_in_one_step(self):
        # y responds instantly through the model effectiveness: the next
        # measurement equals nu_c up to the sigma-weighted increment cost
        B, locs = make_b_eff()
        basis = build_basis(locs, 1.8, 5)
        ctrl = IndiController(B, np.diag([0.1, 0.1]), make_limits(), 0.015,
                              mode="qp-v", basis=basis, lag_model=None)
        u = np.zeros(12)
        y_ref = np.array([30.0, 20.0])
        for _ in range(5):
            u = ctrl.step(B @ u, y_ref)
        residual = B @ u - ctrl.last["nu_c"]
        assert np.linalg.norm(residual) <= 1e-3

    def test_rate_limits_respected_across_steps(self):
        B, locs = make_b_eff(m=2)
        lim = InputLimits(u_min=-np.ones(2), u_max=np.ones(2),
                          rate_min=-np.ones(2), rate_max=np.ones(2),
                          u_adj=np.array([5.0]), dt=0.015)
        ctrl = IndiController(B, np.diag([0.1, 0.1]), lim, 0.015,
                              mode="qp", lag_model=None)
        u1 = ctrl.step(np.zeros(2), np.array([1.0, 0.5]))
        u2 = ctrl.step(np.zeros(2), np.array([1.0, 0.5]))
        assert np.all(np.abs(u1) <= 1.0 * 0.015 + 1e-9)
        assert np.all(np.abs(u2 - u1) <= 1.0 * 0.015 + 1e-9)

    @pytest.mark.parametrize("mode", ["qp-v", "qp", "pi"])
    def test_last_reports_shape_coefficients_and_binding(self, monkeypatch, mode):
        # u_v sums the "qp-v" increments, so Phi u_v is the command; it stays
        # zero in servo space.  saturated marks a binding tick, as for lqg
        B, locs = make_b_eff()
        basis = build_basis(locs, 1.8, 5)
        ctrl = IndiController(B, np.diag([0.1, 0.1]), make_limits(), 0.015, mode=mode,
                              basis=basis, lag_model=None)
        results, seen = capture_allocations(monkeypatch), set()
        for y_ref in ([1.0, 0.5], [5000.0, 0.0], [5000.0, 0.0], [1.0, 0.5]):
            results.clear()
            u = ctrl.step(B @ ctrl.u_prev, np.array(y_ref))
            last = ctrl.last
            # "pi" allocates nothing: no active set, no iterations
            assert bool(last["saturated"]) is bool(results and results[0].active_set)
            assert last["iterations"] == (results[0].iterations if results else 0)
            if results:
                assert np.array_equal(last["eps_ca"], results[0].eps_ca)
            seen.add(bool(last["saturated"]))
            if mode == "qp-v":
                np.testing.assert_allclose(basis.Phi @ last["u_v"], u, rtol=0.0, atol=1e-12)
            else:
                assert np.array_equal(last["u_v"], np.zeros(5))
        assert seen == ({False} if mode == "pi" else {False, True})

    @pytest.mark.parametrize("mode", ["qp-v", "qp"])
    def test_rate_box_fallback_after_binding_rate_rows(self, monkeypatch, mode):
        # a huge reference binds rate rows (indices 46+ of the full A);
        # then a relative-bound violation forces the 24-row rate box,
        # where those row indices must not be reused as a warm start
        B, locs = make_b_eff()
        ctrl = IndiController(B, np.diag([0.1, 0.1]), make_limits(), 0.015,
                              mode=mode, basis=build_basis(locs, 1.8, 5), lag_model=None)
        y_ref = np.array([5000.0, 0.0])
        results = capture_allocations(monkeypatch)
        ctrl.step(np.zeros(2), y_ref)
        assert max(results[-1].active_set) >= 46
        assert results[-1].status == "Optimal"
        u_prev = ctrl.u_prev.copy()
        u_prev[1] += 20.0  # pair (1, 2) now breaks its 10-degree relative bound
        ctrl.u_prev = u_prev.copy()
        u = ctrl.step(np.zeros(2), y_ref)
        assert results[-1].status == "Optimal"
        assert np.all(np.abs(u - u_prev) <= 80.0 * 0.015 + 1e-9)
        u_next = ctrl.step(np.zeros(2), y_ref)
        assert np.all(np.abs(u_next - u) <= 80.0 * 0.015 + 1e-9)


@pytest.mark.parametrize("mode", ["qp-v", "qp", "pi"])
def test_assigned_u_prev_is_the_next_ticks_command(monkeypatch, mode):
    # the tick map's input vector is built once: a u_prev assigned between two
    # steps is the last command that the next tick's map, limits and increment use
    B, locs = make_b_eff()
    ctrl = IndiController(B, np.diag([0.1, 0.1]), make_limits(), 0.015, mode=mode,
                          basis=build_basis(locs, 1.8, 5),
                          lag_model=default_lag_model(0.015, SERVO_ZETA, SERVO_OMEGA, 1))
    problems = []
    for name in ("allocate_qp", "allocate_qp_virtual"):
        def keep(problem, *args, _alloc=getattr(indi, name), **kwargs):
            problems.append((problem, _alloc(problem, *args, **kwargs)))
            return problems[-1][1]
        monkeypatch.setattr(indi, name, keep)
    y_ref = np.array([3.0, 1.0])
    ctrl.step(np.zeros(2), y_ref)
    v = ctrl.u_prev + np.linspace(-2.0, 2.0, 12)
    ctrl.u_prev = v
    y_meas, n, p = np.array([0.5, -0.2]), ctrl._state.size, 2
    want = ctrl._T @ np.concatenate((ctrl._state, v, y_meas, y_ref))
    u = ctrl.step(y_meas, y_ref)
    last = ctrl.last
    assert last["e"].tobytes() == want[:p].tobytes()
    assert last["nu_c"].tobytes() == want[n:n + p].tobytes()
    assert last["hedge"].tobytes() == want[n + p:n + 2 * p].tobytes()
    if mode == "pi":
        lim = ctrl.limits
        assert u.tobytes() == np.minimum(np.maximum(want[n + 3 * p:], lim.u_min),
                                         lim.u_max).tobytes()
    else:
        problem, res = problems[-1]
        assert problem.u0 is v and np.array_equal(problem.ineq.b, assemble(ctrl.limits, v).b)
        assert problem.target.tobytes() == want[n + 2 * p:n + 3 * p].tobytes()
        assert u.tobytes() == (v + res.delta_u).tobytes()
    assert ctrl.u_prev is u and last["u"].tobytes() == u.tobytes()


@pytest.mark.parametrize("mode", ["qp-v", "qp", "pi"])
@pytest.mark.parametrize("which, value", [
    ("y_meas", 0.5), ("y_meas", [0.5]), ("y_meas", np.zeros(3)), ("y_ref", 3.0),
    ("y_ref", np.ones(1)), ("u_prev", np.zeros(1)), ("u_prev", 0.0), ("u_prev", np.zeros(11)),
])
def test_step_refuses_wrongly_shaped_inputs(mode, which, value):
    # the step writes its inputs into views of the map's input vector, where a
    # scalar or length-1 value would broadcast; it is refused, and the
    # controller is left as it was
    B, locs = make_b_eff()
    ctrl = IndiController(B, np.diag([0.1, 0.1]), make_limits(), 0.015, mode=mode,
                          basis=build_basis(locs, 1.8, 5), lag_model=None)
    ctrl.step(np.zeros(2), np.array([3.0, 1.0]))
    z, last = ctrl._z.copy(), ctrl.last.copy()
    args = {"y_meas": np.zeros(2), "y_ref": np.array([3.0, 1.0])}
    if which == "u_prev":
        ctrl.u_prev = value
    else:
        args[which] = value
    with pytest.raises(DimensionMismatch, match="shapes"):
        ctrl.step(**args)
    assert ctrl._z.tobytes() == z.tobytes() and ctrl.last.tobytes() == last.tobytes()


class TestCertificates:
    def _synthetic_logs(self, n=60, scale=1.0):
        rng = np.random.default_rng(5)
        B_model = np.vstack([np.ones(6), np.linspace(0.2, 1.4, 6)])
        B_true = scale * B_model
        nu_c = np.cumsum(0.01 * rng.standard_normal((n, 2)), axis=0)
        eps_ca = 1e-4 * rng.standard_normal((n, 2))
        y_true = nu_c + 0.05 * rng.standard_normal((n, 2))
        e_log = 0.1 * rng.standard_normal((n, 2))
        return B_true, B_model, nu_c, eps_ca, y_true, e_log

    def test_perfect_model_has_zero_mismatch_gain(self):
        B_true, B_model, nu, eps, y, e = self._synthetic_logs()
        cert = certify_bounds(np.diag([0.1, 0.1]), B_true, B_model, nu, eps, y, e)
        assert cert.b_bar == pytest.approx(0.0, abs=1e-12)
        # with b_bar = 0 the recursion bound is the residual plus the
        # allocation-error ceiling
        assert cert.recursion_bound == pytest.approx(
            cert.residual_bar + cert.eps_ca_bar, rel=1e-12)

    def test_default_gain_lyapunov_certificate(self):
        B_true, B_model, nu, eps, y, e = self._synthetic_logs()
        cert = certify_bounds(np.diag([0.1, 0.1]), B_true, B_model, nu, eps, y, e)
        assert np.allclose(cert.P, 5.0 * np.eye(2), atol=1e-12)
        assert cert.mu1 == pytest.approx(20.0, abs=1e-12)

    def test_uniform_scaling_mismatch_gain(self):
        B_true, B_model, nu, eps, y, e = self._synthetic_logs(scale=0.8)
        cert = certify_bounds(np.diag([0.1, 0.1]), B_true, B_model, nu, eps, y, e)
        assert cert.b_bar == pytest.approx(0.2, abs=1e-12)
        assert np.isfinite(cert.recursion_bound)

    def test_non_contractive_mismatch_raises(self):
        B_true, B_model, nu, eps, y, e = self._synthetic_logs(scale=2.5)
        with pytest.raises(GainNotContractive):
            certify_bounds(np.diag([0.1, 0.1]), B_true, B_model, nu, eps, y, e)

    def test_recursion_terms_reproduce_constructed_sequence(self):
        # build eps by iterating the recursion with a known residual and
        # check recursion_terms recovers that residual exactly
        rng = np.random.default_rng(11)
        B_model = np.vstack([np.ones(4), np.linspace(0.5, 2.0, 4)])
        B_true = 0.9 * B_model
        K_B = 0.9 * np.eye(2)
        E = 0.1 * np.eye(2)
        n = 40
        nu_c = np.cumsum(0.02 * rng.standard_normal((n, 2)), axis=0)
        eps_ca = 1e-3 * rng.standard_normal((n, 2))
        r_true = 0.01 * rng.standard_normal((n, 2))
        eps = np.zeros((n, 2))
        for k in range(1, n - 1):
            eps[k + 1] = E @ (eps[k] - (nu_c[k] - nu_c[k - 1])) + K_B @ eps_ca[k] + r_true[k]
        y_true = np.vstack([np.zeros(2), eps[1:] + nu_c[:-1]])
        _, _, residual = recursion_terms(nu_c, eps_ca, y_true, B_true, B_model)
        assert np.allclose(residual, r_true[1:n - 1], atol=1e-12)
