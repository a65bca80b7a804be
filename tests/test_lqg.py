"""Regulator and estimator design tests for the baseline controller."""

import numpy as np
import pytest
import scipy.linalg

from morphwing import harness
from morphwing.constraints import InputLimits
from morphwing.errors import DimensionMismatch, NonFiniteState, NotDetectable
from morphwing.harness import ScenarioConfig, build_model
from morphwing.indi import tick_dtype
from morphwing.lqg import (
    DesignModel,
    LqgController,
    design_kalman,
    design_lqr,
    perturb_model,
)
from morphwing.numerics import care_residual, hurwitz_margin, integrate_step
from morphwing.plant import PlantConfig, synthesize_wing_model
from morphwing.shapes import build_basis

SQRT2 = np.sqrt(2.0)


def scalar_model():
    return DesignModel(A=np.array([[-1.0]]), B=np.array([[1.0]]),
                       B_g=np.array([[1.0]]), C=np.array([[1.0]]),
                       D=np.array([[0.0]]))


def twin_and_basis():
    model = synthesize_wing_model(PlantConfig())
    return model, build_basis(model.locations, 1.8, 5)


def make_limits(m=12):
    return InputLimits(u_min=-30.0 * np.ones(m), u_max=30.0 * np.ones(m),
                       rate_min=-80.0 * np.ones(m), rate_max=80.0 * np.ones(m),
                       u_adj=55.0 * np.ones(m - 1), dt=0.015)


class TestPerturbModel:
    def test_zero_relative_error_is_identity(self):
        model, _ = twin_and_basis()
        p = perturb_model(model, rel=0.0, seed=3)
        assert np.array_equal(p.A, model.A)
        assert np.array_equal(p.B, model.B)

    def test_entries_stay_within_band(self):
        model, _ = twin_and_basis()
        p = perturb_model(model, rel=0.2, seed=5)
        nz = model.B != 0.0
        ratio = p.B[nz] / model.B[nz]
        assert np.all(ratio >= 0.8) and np.all(ratio <= 1.2)

    def test_same_seed_reproduces(self):
        model, _ = twin_and_basis()
        p1 = perturb_model(model, rel=0.1, seed=9)
        p2 = perturb_model(model, rel=0.1, seed=9)
        assert np.array_equal(p1.A, p2.A)


class TestRegulatorDesign:
    def test_default_weights_design_succeeds(self):
        model, basis = twin_and_basis()
        lq = design_lqr(perturb_model(model, rel=0.0), basis.Phi)
        assert lq.R.shape == (5, 5)
        assert np.allclose(lq.R, 260.0 * np.eye(5))
        assert lq.Q[4:, 4:] == pytest.approx(10.0 * np.eye(2))

    def test_riccati_residual_small(self):
        model, basis = twin_and_basis()
        lq = design_lqr(perturb_model(model, rel=0.0), basis.Phi)
        res = care_residual(lq.A_aug, lq.B_aug, lq.Q, lq.R, lq.S)
        assert res <= 1e-8 * max(1.0, float(np.max(np.abs(lq.S))) ** 2)

    def test_closed_loop_margin(self):
        model, basis = twin_and_basis()
        lq = design_lqr(perturb_model(model, rel=0.0), basis.Phi)
        assert hurwitz_margin(lq.A_aug + lq.B_aug @ lq.K_X) <= -1e-4

    def test_design_on_perturbed_model_succeeds(self):
        model, basis = twin_and_basis()
        lq = design_lqr(perturb_model(model, rel=0.2, seed=13), basis.Phi)
        assert hurwitz_margin(lq.A_aug + lq.B_aug @ lq.K_X) < 0.0


def test_default_designs_match_scipy_riccati():
    # the regulator and filter problems of the default lqg scenario,
    # solved independently by scipy's Schur-based CARE solver
    cfg = ScenarioConfig(controller="lqg")
    lc = cfg.lqg
    model = build_model(cfg)
    Phi = build_basis(model.locations, cfg.plant.half_span, cfg.q).Phi
    dm = perturb_model(model, rel=lc.perturb_rel, seed=lc.perturb_seed)
    lq = design_lqr(dm, Phi, q_int_weight=lc.q_int_weight, r_weight=lc.r_weight)
    S_ref = scipy.linalg.solve_continuous_are(lq.A_aug, lq.B_aug, lq.Q, lq.R)
    assert np.max(np.abs(lq.S - S_ref)) <= 1e-9 * np.max(np.abs(S_ref))

    R_k = cfg.noise.std ** 2 * np.eye(2)
    assert not np.any(lc.n_k)  # no cross covariance, so L = P C' R_k^-1
    kd = design_kalman(dm, lc.q_k, R_k, np.asarray(lc.n_k, dtype=float))
    G = dm.B_g.reshape(-1, 1)
    P_ref = scipy.linalg.solve_continuous_are(dm.A.T, dm.C.T, lc.q_k * G @ G.T, R_k)
    L_ref = P_ref @ dm.C.T @ np.linalg.inv(R_k)
    assert np.max(np.abs(kd.L - L_ref)) <= 1e-9 * np.max(np.abs(L_ref))


class TestFilterDesign:
    def test_scalar_gain_oracle(self):
        # -2P - P^2 + 1 = 0 gives P = sqrt(2) - 1, and L = P C / R
        kd = design_kalman(scalar_model(), 1.0, 1.0, np.array([0.0]))
        assert kd.L[0, 0] == pytest.approx(SQRT2 - 1.0, abs=1e-9)

    def test_estimator_is_stable_on_twin(self):
        model, _ = twin_and_basis()
        kd = design_kalman(perturb_model(model, rel=0.0), 0.05, np.eye(2), np.zeros(2))
        assert hurwitz_margin(model.A - kd.L @ model.C) <= -1e-4

    def test_cross_covariance_design_succeeds(self):
        model, _ = twin_and_basis()
        kd = design_kalman(perturb_model(model, rel=0.0), 1.02e-5, 0.01 * np.eye(2),
                           1e-5 * np.array([3.16, 3.16]))
        assert hurwitz_margin(model.A - kd.L @ model.C) < 0.0

    def test_excess_cross_covariance_rejected(self):
        # N R^-1 N' above Q_k makes the shifted process covariance
        # indefinite; the design must refuse rather than return garbage
        model, _ = twin_and_basis()
        with pytest.raises(NotDetectable):
            design_kalman(perturb_model(model, rel=0.0), 1e-8, 1e-6 * np.eye(2),
                          1e-3 * np.array([1.0, 1.0]))

    def test_error_covariance_matches_design(self):
        # scalar plant with unit process/measurement intensities: the
        # stationary estimate-error variance should sit at sqrt(2)-1
        kd = design_kalman(scalar_model(), 1.0, 1.0, np.array([0.0]))
        L = float(kd.L[0, 0])
        dt = 1e-3
        variances = []
        for seed in range(4):
            rng = np.random.default_rng(seed)
            x = xh = 0.0
            errs = np.empty(60000)
            for k in range(60000):
                y = x + rng.standard_normal() * np.sqrt(1.0 / dt)
                xh += dt * (-xh + L * (y - xh))
                x += dt * (-x) + np.sqrt(dt) * rng.standard_normal()
                errs[k] = x - xh
            variances.append(np.var(errs[5000:]))
        assert np.mean(variances) == pytest.approx(SQRT2 - 1.0, rel=0.1)

    def test_noiseless_convergence_to_true_state(self):
        # no process noise and a confident filter: the estimate closes on
        # the true trajectory of the undriven plant
        model, _ = twin_and_basis()
        kd = design_kalman(perturb_model(model, rel=0.0), 1e-4, 1e-6 * np.eye(2), np.zeros(2))
        A, C = model.A, model.C
        L = kd.L
        x = np.array([1.0, 0.0, -1.0, 0.0])
        xh = np.zeros(4)
        n0 = np.linalg.norm(x - xh)
        dt = 1e-4
        for _ in range(20000):
            y = C @ x
            xh = integrate_step(lambda z, _: A @ z + L @ (y - C @ z), xh, None, dt)
            x = integrate_step(lambda z, _: A @ z, x, None, dt)
        assert np.linalg.norm(x - xh) < 0.01 * n0


class TestController:
    def test_full_information_matches_direct_regulator(self):
        # the controller with the true state supplied must reproduce a
        # hand-rolled regulator evaluation exactly
        model, basis = twin_and_basis()
        lq = design_lqr(perturb_model(model, rel=0.0), basis.Phi)
        ctrl = LqgController(lq, perturb_model(model, rel=0.0), basis.Phi, make_limits(), 0.015)
        rng = np.random.default_rng(2)
        z = np.zeros(2)
        prev_int = np.zeros(2)
        u_prev = np.zeros(12)
        y_ref = np.array([5.0, 3.0])
        for _ in range(30):
            x = 0.1 * rng.standard_normal(4)
            u = ctrl.step(x, y_ref)
            integrand = model.C @ x + model.D @ u_prev - y_ref
            z = z + 0.5 * 0.015 * (integrand + prev_int)
            prev_int = integrand
            X = np.concatenate([x, z])
            y_aug = np.concatenate([np.zeros(4), -y_ref])
            u_ref = np.clip(basis.Phi @ (lq.K_X @ X + lq.K_r @ y_aug), -30.0, 30.0)
            assert np.allclose(u, u_ref, atol=1e-9)
            u_prev = u_ref

    def test_full_information_state_is_a_copy_of_the_observation(self):
        # stepping on a row of a larger array (a run log) keeps no view of it
        model, basis = twin_and_basis()
        lq = design_lqr(perturb_model(model, rel=0.0), basis.Phi)
        ctrl = LqgController(lq, perturb_model(model, rel=0.0), basis.Phi, make_limits(), 0.015)
        arr = np.arange(12.0).reshape(3, 4) / 100.0
        ctrl.step(arr[1], np.zeros(2))
        assert np.array_equal(ctrl.x_hat, arr[1])
        assert not np.shares_memory(ctrl.x_hat, arr)

    def test_integral_action_removes_steady_offset(self):
        model, basis = twin_and_basis()
        lq = design_lqr(perturb_model(model, rel=0.0), basis.Phi)
        ctrl = LqgController(lq, perturb_model(model, rel=0.0), basis.Phi, make_limits(), 0.001)
        x = np.zeros(4)
        u = np.zeros(12)
        y_ref = np.array([10.0, 5.0])
        for _ in range(20000):
            u = ctrl.step(x, y_ref)
            x = integrate_step(lambda z, _: model.A @ z + model.B @ u, x, None, 0.001)
        y = model.C @ x + model.D @ u
        assert np.allclose(y, y_ref, rtol=0.01)

    def test_estimator_substepping_keeps_fast_filters_stable(self):
        model, basis = twin_and_basis()
        lq = design_lqr(perturb_model(model, rel=0.0), basis.Phi)
        kd = design_kalman(perturb_model(model, rel=0.0), 10.0, 1e-4 * np.eye(2), np.zeros(2))
        ctrl = LqgController(lq, perturb_model(model, rel=0.0), basis.Phi, make_limits(),
                             0.015, kalman=kd)
        assert ctrl.n_sub > 1
        for _ in range(50):
            u = ctrl.step(np.array([1.0, 0.5]), np.zeros(2))
        assert np.all(np.isfinite(ctrl.x_hat))
        assert np.all(np.isfinite(u))

    def test_estimator_map_matches_rk4_substeps(self):
        # the precomputed tick map against the per-substep RK4 closure it
        # replaces.  With this fast filter both sum terms of size h |L y|,
        # about 200 times the estimate, so they agree to rounding of those
        model, basis = twin_and_basis()
        dm = perturb_model(model, rel=0.0)
        lq = design_lqr(dm, basis.Phi)
        kd = design_kalman(dm, 10.0, 1e-4 * np.eye(2), np.zeros(2))
        ctrl = LqgController(lq, dm, basis.Phi, make_limits(), 0.015, kalman=kd)
        assert ctrl.n_sub > 1
        A, B, C, D, L = dm.A, dm.B, dm.C, dm.D, kd.L
        h = 0.015 / ctrl.n_sub
        rng = np.random.default_rng(4)
        y_ref = np.array([5.0, 3.0])
        x_hat = np.zeros(4)
        got, want = [], []
        for _ in range(50):
            y = np.array([1.0, 0.5]) + rng.standard_normal(2)
            u = ctrl.u_prev

            def f(xh, _):
                return A @ xh + B @ u + L @ (y - C @ xh - D @ u)

            for _ in range(ctrl.n_sub):
                x_hat = integrate_step(f, x_hat, None, h)
            ctrl.step(y, y_ref)
            got.append(ctrl.x_hat)
            want.append(x_hat)
        assert np.max(np.abs(np.subtract(got, want))) <= 1e-11 * np.max(np.abs(want))
        with pytest.raises(NonFiniteState):
            ctrl.step(np.array([np.nan, 0.5]), y_ref)

    def test_position_saturation_is_flagged(self):
        model, basis = twin_and_basis()
        lq = design_lqr(perturb_model(model, rel=0.0), basis.Phi)
        lim = InputLimits(u_min=-0.01 * np.ones(12), u_max=0.01 * np.ones(12),
                          rate_min=-80.0 * np.ones(12), rate_max=80.0 * np.ones(12),
                          u_adj=55.0 * np.ones(11), dt=0.015)
        ctrl = LqgController(lq, perturb_model(model, rel=0.0), basis.Phi, lim, 0.015)
        u = ctrl.step(np.array([5.0, 0.0, 5.0, 0.0]), np.zeros(2))
        assert ctrl.last["saturated"]
        assert np.all(np.abs(u) <= 0.01 + 1e-12)


class StepByStepLqg:
    """The LQG tick as step-by-step formulas, with LqgController's signature:
    the estimator's RK4 substeps (or the true state), the trapezoid integral,
    u_v = K_X [x; z] + K_r [0; -y_ref], u = Phi u_v, the clamp and its flag."""

    def __init__(self, lqr, design_model, Phi, limits, dt, kalman=None):
        self.lqr, self.dm, self.Phi, self.limits, self.dt, self.kalman = (
            lqr, design_model, Phi, limits, dt, kalman)
        (m, q), (p, n) = Phi.shape, design_model.C.shape
        self.n_sub = 1
        if kalman is not None:
            lam = np.max(np.abs(np.linalg.eigvals(design_model.A - kalman.L @ design_model.C)))
            self.n_sub = max(1, int(np.ceil(dt * float(lam) / 2.0)))
        self.x_hat, self.u_prev = np.zeros(n), np.zeros(m)
        self.z, self.prev = np.zeros(p), np.zeros(p)   # the integral and its last integrand
        self.observes = "x" if kalman is None else "y_raw"
        self.last = np.zeros((), tick_dtype(m, q, p))

    def step(self, obs, y_ref):
        A, B, C, D = self.dm.A, self.dm.B, self.dm.C, self.dm.D
        u_prev = self.u_prev
        if self.kalman is None:
            self.x_hat = np.array(obs, dtype=float)
        else:
            def f(xh, _):
                return A @ xh + B @ u_prev + self.kalman.L @ (obs - C @ xh - D @ u_prev)

            for _ in range(self.n_sub):
                self.x_hat = integrate_step(f, self.x_hat, None, self.dt / self.n_sub)
        integrand = C @ self.x_hat + D @ u_prev - y_ref
        self.z = self.z + 0.5 * self.dt * (integrand + self.prev)
        self.prev = integrand
        u_v = (self.lqr.K_X @ np.concatenate([self.x_hat, self.z])
               + self.lqr.K_r @ np.concatenate([np.zeros(self.x_hat.size), -y_ref]))
        u = self.Phi @ u_v
        self.u_prev = np.clip(u, self.limits.u_min, self.limits.u_max)
        self.last["u"], self.last["u_v"] = self.u_prev, u_v
        self.last["saturated"] = np.any(u != self.u_prev)
        return self.u_prev


@pytest.mark.parametrize("kalman", [True, False])
def test_tick_map_matches_step_by_step_formulas(kalman):
    # the tick against StepByStepLqg's formulas, tick by tick, on random
    # observations and references that clamp some ticks
    model, basis = twin_and_basis()
    dm = perturb_model(model, rel=0.1, seed=3)
    lq = design_lqr(dm, basis.Phi)
    kd = design_kalman(dm, 0.05, 0.01 * np.eye(2), np.zeros(2)) if kalman else None
    lim = InputLimits(u_min=-5.0 * np.ones(12), u_max=5.0 * np.ones(12),
                      rate_min=-80.0 * np.ones(12), rate_max=80.0 * np.ones(12),
                      u_adj=55.0 * np.ones(11), dt=0.015)
    ctrl = LqgController(lq, dm, basis.Phi, lim, 0.015, kalman=kd)
    ref = StepByStepLqg(lq, dm, basis.Phi, lim, 0.015, kalman=kd)
    assert ctrl.n_sub == ref.n_sub
    rng = np.random.default_rng(8)
    got, want, flags = [], [], []
    for k in range(60):
        y, y_ref = 20.0 * rng.standard_normal(2), 10.0 * rng.standard_normal(2)
        x_true = 0.1 * rng.standard_normal(4)
        obs = y if kalman else x_true
        out, u = ctrl.step(obs, y_ref), ref.step(obs, y_ref)
        got.append(np.concatenate([ctrl.x_hat, ctrl.last["u_v"], out]))
        want.append(np.concatenate([ref.x_hat, ref.last["u_v"], u]))
        flags.append((bool(ctrl.last["saturated"]), bool(ref.last["saturated"])))
    got, want = np.array(got), np.array(want)
    for cols in (slice(0, 4), slice(4, 9), slice(9, 21)):
        err = np.max(np.abs(got[:, cols] - want[:, cols]))
        assert err <= 1e-12 * np.max(np.abs(want[:, cols])), (cols, err)
    assert all(a == b for a, b in flags)
    assert 0 < sum(a for a, _ in flags) < len(flags)
    if kalman:
        with pytest.raises(NonFiniteState):
            ctrl.step(np.array([np.nan, 0.5]), y_ref)


@pytest.mark.parametrize("kalman", [True, False], ids=["kalman", "full-information"])
@pytest.mark.parametrize("which, value", [
    ("obs", 0.5), ("obs", [0.5]), ("obs", np.zeros(3)), ("y_ref", 3.0), ("y_ref", np.ones(1)),
    ("u_prev", np.zeros(1)), ("u_prev", 0.0), ("u_prev", np.zeros(11)),
])
def test_step_refuses_wrongly_shaped_inputs(kalman, which, value):
    # the step writes its inputs into views of the map's input vector, where a
    # scalar or length-1 value would broadcast; it is refused, and the map
    # input (the estimate with it) and the record are left as they were
    model, basis = twin_and_basis()
    dm = perturb_model(model, rel=0.0)
    kd = design_kalman(dm, 0.05, 0.01 * np.eye(2), np.zeros(2)) if kalman else None
    ctrl = LqgController(design_lqr(dm, basis.Phi), dm, basis.Phi, make_limits(), 0.015,
                         kalman=kd)
    args = {"obs": np.array([1.0, 0.5]) if kalman else np.full(4, 0.1),
            "y_ref": np.array([3.0, 1.0])}
    ctrl.step(**args)
    z, last = ctrl._z.copy(), ctrl.last.copy()
    if which == "u_prev":
        ctrl.u_prev = value
    else:
        args[which] = value
    with pytest.raises(DimensionMismatch, match="shapes"):
        ctrl.step(**args)
    assert ctrl._z.tobytes() == z.tobytes() and ctrl.last.tobytes() == last.tobytes()


def test_non_finite_estimate_is_refused_and_not_kept():
    # a NaN observation makes the estimate non-finite: the tick raises and the
    # controller keeps its last estimate, command and record
    model, basis = twin_and_basis()
    dm = perturb_model(model, rel=0.0)
    ctrl = LqgController(design_lqr(dm, basis.Phi), dm, basis.Phi, make_limits(), 0.015,
                         kalman=design_kalman(dm, 0.05, 0.01 * np.eye(2), np.zeros(2)))
    u = ctrl.step(np.array([1.0, 0.5]), np.array([3.0, 1.0]))
    x_hat, last = ctrl.x_hat, ctrl.last.copy()
    with pytest.raises(NonFiniteState):
        ctrl.step(np.array([np.nan, 0.5]), np.array([3.0, 1.0]))
    assert ctrl.x_hat.tobytes() == x_hat.tobytes() and ctrl.u_prev is u
    assert ctrl.last.tobytes() == last.tobytes()


@pytest.mark.parametrize("kalman", [True, False], ids=["kalman-fy+35%-harsh", "full-information"])
def test_closed_loop_run_matches_step_by_step_formulas(monkeypatch, kalman):
    # a whole closed-loop run, its controller built as StepByStepLqg: the
    # Kalman filter on fy+35% with noise, fault and backlash, and full
    # information on the clean default scenario
    if kalman:
        cfg = harness.mla_config("fy+35%")
        cfg.noise.enabled = cfg.fault.enabled = cfg.actuators.backlash = True
    else:
        cfg = ScenarioConfig()
    cfg.controller = "lqg"
    log, _ = harness.run_scenario(cfg, pair_open_loop=False)
    monkeypatch.setattr(harness, "LqgController", StepByStepLqg)
    want, _ = harness.run_scenario(cfg, pair_open_loop=False)
    assert np.max(np.abs(log.u - want.u)) <= 1e-9
    assert np.max(np.abs(log.u_v - want.u_v)) <= 1e-9
    assert np.array_equal(log.sat_flags, want.sat_flags)
