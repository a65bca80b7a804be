"""End-to-end acceptance checks for the toolkit.

Each numbered test prints one PASS/FAIL line (visible with `pytest -s`
or in captured output on failure) and asserts the same condition.
Scenario runs are shared through module-scoped fixtures so the suite
stays fast.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from morphwing.constraints import InputLimits, adjacency_matrix, assemble
from morphwing.harness import (
    ScenarioConfig,
    certify_run,
    emit_csv,
    frequency_sweep,
    gla_config,
    mla_config,
    run_scenario,
)
from morphwing.numerics import integrate_step, pseudo_inverse, solve_care, solve_lyapunov
from morphwing.plant import ActuatorBank, ActuatorConfig, synthesize_wing_model
from morphwing.shapes import build_basis

from test_allocator import make_problem, nnls_objective, qp_objective


def report(num, name, ok, detail=""):
    line = f"criterion {num:02d} [{name}]: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def timed_run(cfg):
    t0 = time.perf_counter()
    log, rep = run_scenario(cfg)
    return log, rep, time.perf_counter() - t0


@pytest.fixture(scope="module")
def mla30():
    return timed_run(mla_config("fy+30%"))


@pytest.fixture(scope="module")
def mla35():
    return timed_run(mla_config("fy+35%"))


def gmla_cfg(noise=False, fault=False, backlash=False):
    cfg = ScenarioConfig()
    cfg.noise.enabled = noise
    cfg.fault.enabled = fault
    cfg.actuators.backlash = backlash
    return cfg


@pytest.fixture(scope="module")
def comparison_runs():
    """INDI and LQG runs for the three comparison conditions."""
    out = {}
    for cond, kw in (("a", {}),
                     ("b", {"noise": True}),
                     ("c", {"noise": True, "fault": True, "backlash": True})):
        cfg = gmla_cfg(**kw)
        runs = {}
        for name in ("indi-qp-v", "lqg"):
            c = replace(cfg, controller=name)
            runs[name] = timed_run(c) + (c,)
        out[cond] = runs
    return out


def check_limits(u, position=30.0, rate=80.0, dt=0.015):
    adj = np.array([55.0 if i % 2 == 0 else 10.0 for i in range(u.shape[1] - 1)])
    ok = np.all(np.abs(u) <= position + 1e-9)
    ok &= np.all(np.abs(np.diff(u, axis=0)) <= rate * dt + 1e-9)
    ok &= np.all(np.abs(u[:, :-1] - u[:, 1:]) <= adj + 1e-9)
    return bool(ok)


def test_criterion_01_allocator_oracle():
    rng = np.random.default_rng(0)
    t0 = time.perf_counter()
    worst_gap = 0.0
    worst_viol = 0.0
    from morphwing.allocator import allocate_qp
    for i in range(500):
        m = int(rng.integers(2, 7))
        problem = make_problem(m=m, seed=1000 + i, sigma=10.0 ** rng.uniform(-4, -1),
                               u_lim=rng.uniform(0.5, 5.0), rate=rng.uniform(20.0, 200.0),
                               adj=rng.uniform(0.5, 10.0))
        res = allocate_qp(problem)
        obj = qp_objective(problem, res.delta_u)
        ref, _ = nnls_objective(problem)
        worst_gap = max(worst_gap, obj - ref)
        worst_viol = max(worst_viol, float(np.max(problem.ineq.A @ res.delta_u - problem.ineq.b)))
    elapsed = time.perf_counter() - t0
    ok = worst_gap <= 1e-6 and worst_viol <= 1e-9 and elapsed < 30.0
    report(1, "allocator oracle", ok,
           f"gap {worst_gap:.2e}, viol {worst_viol:.2e}, {elapsed:.1f}s")


def test_criterion_02_constraint_membership():
    rng = np.random.default_rng(1)
    m = 12
    lim = InputLimits(u_min=-30.0 * np.ones(m), u_max=30.0 * np.ones(m),
                      rate_min=-80.0 * np.ones(m), rate_max=80.0 * np.ones(m),
                      u_adj=np.array([55.0 if i % 2 == 0 else 10.0 for i in range(m - 1)]),
                      dt=0.015)
    C = adjacency_matrix(m)
    agree = 0
    total = 10000
    for _ in range(100):
        u0 = rng.uniform(-29.0, 29.0, m)
        if np.any(np.abs(C @ u0) > lim.u_adj):
            u0 = np.clip(u0, -5.0, 5.0)
        ineq = assemble(lim, u0)
        du = rng.uniform(-2.5, 2.5, (100, m))
        compiled = np.all(du @ ineq.A.T <= ineq.b, axis=1)
        u = u0 + du
        direct = (np.all(u <= lim.u_max, axis=1)
                  & np.all(u >= lim.u_min, axis=1)
                  & np.all(np.abs(u @ C.T) <= lim.u_adj, axis=1)
                  & np.all(du <= lim.rate_max * lim.dt, axis=1)
                  & np.all(du >= lim.rate_min * lim.dt, axis=1))
        agree += int(np.sum(compiled == direct))
    report(2, "constraint membership", agree == total, f"{agree}/{total} agree")


def test_criterion_03_pseudo_inverse_identity():
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(100):
        B = rng.uniform(0.5, 2.0, (2, 12))
        worst = max(worst, float(np.max(np.abs(B @ pseudo_inverse(B) - np.eye(2)))))
    report(3, "pseudo-inverse identity", worst <= 1e-10, f"max dev {worst:.2e}")


def test_criterion_04_shape_smoothness():
    rng = np.random.default_rng(3)
    basis = build_basis(np.linspace(0.15, 1.8, 12), 1.8, 5)
    x = 2.0 * basis.xs_norm - 1.0
    worst = 0.0
    for _ in range(100):
        u = basis.Phi @ rng.uniform(-5.0, 5.0, 5)
        coef = np.polynomial.polynomial.polyfit(x, u, 4)
        fit = np.polynomial.polynomial.polyval(x, coef)
        worst = max(worst, float(np.max(np.abs(u - fit))))
    report(4, "shape smoothness", worst <= 1e-10, f"max residual {worst:.2e}")


def test_criterion_05_allocator_diagnostics(mla35):
    log, _, _ = mla35
    free = log.sat_flags == 0
    eps_free = float(log.eps_ca_norm[free].max()) if free.any() else 0.0
    eps_sat = float(log.eps_ca_norm[~free].max()) if (~free).any() else 0.0
    it_max = int(log.iterations.max())
    ok = eps_free <= 1e-3 and eps_sat <= 0.2 and it_max <= 10 and (~free).any()
    report(5, "allocator diagnostics", ok,
           f"eps free {eps_free:.1e}, eps sat {eps_sat:.1e}, iters {it_max}, "
           f"{int((~free).sum())} saturated ticks")


def test_criterion_06_maneuver_step(mla30):
    log, _, wall = mla30
    cfg = mla_config("fy+30%")
    cmd = 1.3 * cfg.command.f_nom
    tail = log.t_plant >= cfg.duration - 2.0
    steady = float(np.abs(log.y_true_plant[tail, 0] - log.y_ref_plant[tail, 0]).max()) / cmd
    # moment deviation judged during the shear step, after the ramp to
    # the operating point has settled
    step_phase = log.t_plant >= cfg.command.t_start
    mx_dev = float(np.abs(log.y_true_plant[step_phase, 1]
                          - log.y_ref_plant[step_phase, 1]).max())
    mx_lim = 0.05 * cfg.command.m_nom
    clean = check_limits(log.u)
    ok = steady <= 0.02 and mx_dev <= mx_lim and clean and wall < 10.0
    report(6, "maneuver step tracking", ok,
           f"steady {100 * steady:.2f}%, Mx dev {mx_dev:.1f} (limit {mx_lim:.1f}), "
           f"violations {not clean}, {wall:.1f}s")


def test_criterion_07_gust_frequency_trend():
    rows = frequency_sweep(gla_config(), [0.5, 1.5, 3.0, 4.5])
    table = np.array([rep.reductions() for _, rep in rows])
    low_ok = bool(np.all(table[0] >= 60.0))
    inversions = (np.diff(table, axis=0) > 0.0).sum(axis=0)
    ok = low_ok and bool(np.all(inversions <= 1))
    report(7, "gust frequency trend", ok,
           f"0.5 Hz row {np.round(table[0], 1)}, inversions per column {inversions}")


def test_criterion_08a_noiseless_ordering(comparison_runs):
    runs = comparison_runs["a"]
    indi = runs["indi-qp-v"][1].reductions()
    lqg = runs["lqg"][1].reductions()
    walls = [runs[n][2] for n in runs]
    ok = (np.all(indi > lqg) and np.all(indi > 50.0) and np.all(lqg > 50.0)
          and max(walls) < 30.0)
    report(8, "comparison (a) noiseless", ok,
           f"indi {np.round(indi, 1)} vs lqg {np.round(lqg, 1)}, wall {max(walls):.1f}s")


def test_criterion_08b_noise_degradation(comparison_runs):
    indi = comparison_runs["b"]["indi-qp-v"][1].reductions()
    lqg_b = comparison_runs["b"]["lqg"][1].reductions()
    lqg_a = comparison_runs["a"]["lqg"][1].reductions()
    walls = [comparison_runs["b"][n][2] for n in comparison_runs["b"]]
    ok = np.all(indi > 0.0) and np.all(lqg_b < lqg_a) and max(walls) < 30.0
    report(8, "comparison (b) colored noise", ok,
           f"indi {np.round(indi, 1)}, lqg {np.round(lqg_b, 1)} < {np.round(lqg_a, 1)}")


def test_criterion_08c_fault_backlash(comparison_runs):
    indi_rep = comparison_runs["c"]["indi-qp-v"][1]
    indi = indi_rep.reductions()
    lqg = comparison_runs["c"]["lqg"][1].reductions()
    walls = [comparison_runs["c"][n][2] for n in comparison_runs["c"]]
    ok = (np.all(indi > 0.0) and indi_rep.red_rms_fy >= 40.0
          and np.any(lqg < 0.0) and max(walls) < 30.0)
    report(8, "comparison (c) fault+backlash", ok,
           f"indi {np.round(indi, 1)}, lqg {np.round(lqg, 1)}")


def test_criterion_09_bound_certificates(mla30, mla35, comparison_runs):
    cases = [
        ("mla+30%", mla30[0], mla_config("fy+30%")),
        ("mla+35%", mla35[0], mla_config("fy+35%")),
    ]
    for cond in ("a", "b", "c"):
        log, _, _, cfg = comparison_runs[cond]["indi-qp-v"]
        cases.append((f"gmla-{cond}", log, cfg))
    details = []
    ok = True
    for name, log, cfg in cases:
        cert = certify_run(log, cfg)
        ok &= cert.b_bar < 1.0 and cert.recursion_ok and cert.ultimate_ok
        ident = cert.max_identity_residual
        if np.isfinite(ident):
            ok &= ident <= 1e-8
            details.append(f"{name}: b {cert.b_bar:.2f}, id {ident:.1e}")
        else:
            details.append(f"{name}: b {cert.b_bar:.2f}")
    report(9, "bound certificates", bool(ok), "; ".join(details))


def test_criterion_10_backlash_hysteresis():
    model = synthesize_wing_model()

    def load_gap(deadband):
        bank = ActuatorBank(12, ActuatorConfig(backlash=True, u_f_plus=deadband,
                                               u_f_minus=-deadband), dt=0.001)
        n = 20000
        tri = np.concatenate([np.linspace(0.0, 2.0, n), np.linspace(2.0, 0.0, n)])
        loads = np.empty(2 * n)
        for i, u in enumerate(tri):
            loads[i] = model.B_static[0] @ bank.step(np.full(12, u))
        i_up = np.argmin(np.abs(tri[:n] - 1.0))
        i_dn = n + np.argmin(np.abs(tri[n:] - 1.0))
        return float(loads[i_dn] - loads[i_up])

    gap_big = load_gap(0.6)
    gap_zero = load_gap(1e-6)
    ok = gap_big > 0.0 and abs(gap_zero) < 0.1 * gap_big
    report(10, "backlash hysteresis", ok,
           f"gap {gap_big:.2f} at deadband 0.6, {gap_zero:.3f} at ~0")


def test_criterion_11_numerics_oracles():
    P = solve_lyapunov(-np.diag([0.1, 0.1]), np.eye(2))
    lyap_ok = np.allclose(P, 5.0 * np.eye(2), atol=1e-12)
    S = solve_care(np.array([[-1.0]]), np.array([[1.0]]), np.eye(1), np.eye(1))
    care_ok = abs(S[0, 0] - (np.sqrt(2.0) - 1.0)) <= 1e-10

    def err(h):
        x = np.array([1.0])
        for _ in range(int(round(1.0 / h))):
            x = integrate_step(lambda z, _: -z, x, None, h)
        return abs(x[0] - np.exp(-1.0))

    order = np.log2(err(0.1) / err(0.05))
    rk4_ok = 3.7 <= order <= 4.3
    ok = lyap_ok and care_ok and rk4_ok
    report(11, "numerics oracles", ok, f"rk4 order {order:.2f}")


def test_criterion_12_deterministic_output(tmp_path):
    cfg = gmla_cfg(noise=True, fault=True, backlash=True)
    cfg.duration = 5.0

    def once(path):
        log, _ = run_scenario(cfg, pair_open_loop=False)
        return emit_csv(log, path).read_bytes()

    same = once(tmp_path / "r1.csv") == once(tmp_path / "r2.csv")
    report(12, "deterministic CSV", same)
