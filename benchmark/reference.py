"""Checks on the program's outputs, computed apart from the program.

Every check returns a list of failure messages; an empty list means the
output passed.  Nothing here imports the plant, allocator or shape-basis
code of the package under test: the plant reference, the allocator
oracle and the limits are rebuilt from the scenario config alone.
"""

import hashlib

import numpy as np
from scipy.linalg import cho_solve, expm, solve_triangular
from scipy.optimize import nnls
from scipy.signal import bilinear, lfilter

# The bench geometry: twelve servo stations, evenly spaced from 0.15 m
# to 1.8 m.  The config carries the half span but not the stations.
SERVO_STATIONS = np.linspace(0.15, 1.8, 12)

# Relative to the peak load of the run.  Exact zero-order hold against
# the program's fixed-step RK4 differs by 3e-10 (closed loop) to 4e-9
# (gust-only open loop) of the peak on these configs.
PLANT_REL_TOL = 1e-7
# Criterion 1 of the acceptance suite.
ORACLE_GAP_TOL = 1e-6
ORACLE_VIOL_TOL = 1e-9
# Slack on the limit checks, as in the acceptance suite.
LIMIT_TOL = 1e-9
# Polynomial-fit residual, relative to max(1, max |u|).
POLY_TOL = 1e-9


def log_digest(log):
    """SHA-256 over every array of a run log, in field order."""
    h = hashlib.sha256()
    for name, value in vars(log).items():
        h.update(name.encode())
        if isinstance(value, np.ndarray):
            h.update(str(value.dtype).encode())
            h.update(np.ascontiguousarray(value).tobytes())
        else:
            h.update(repr(value).encode())
    return h.hexdigest()


# ---------------------------------------------------------------- plant


def reference_model(cfg):
    """Modal wing model (A, B, B_g, C, D) rebuilt from the config.

    Each mode is a damped oscillator driving one load channel; its DC
    share of the static gain is dc_split, and the feedthrough carries the
    rest.  The shear row tapers mildly along the span, the moment row is
    the shear row times the station.
    """
    p = cfg.plant
    if p.m != SERVO_STATIONS.size or p.n_modes < 2:
        raise ValueError("the plant reference covers 12 servos and at least two modes")
    x = SERVO_STATIONS
    shear = p.fy_gain * (1.0 - 0.1 * (x / p.half_span - 0.5))
    static = np.vstack([shear, shear * x])
    n = 2 * p.n_modes
    channels = [j % 2 for j in range(p.n_modes)]
    per_channel = [channels.count(0), channels.count(1)]
    A = np.zeros((n, n))
    B = np.zeros((n, p.m))
    B_g = np.zeros(n)
    C = np.zeros((2, n))
    for j, ch in enumerate(channels):
        w = 2.0 * np.pi * p.mode_freqs[j]
        i = 2 * j
        A[i, i + 1] = 1.0
        A[i + 1, i] = -w * w
        A[i + 1, i + 1] = -2.0 * p.mode_damp * w
        B[i + 1] = static[ch]
        B_g[i + 1] = p.gust_dc[ch] / p.dc_split
        C[ch, i] = p.dc_split / per_channel[ch] * w * w
    D = (1.0 - p.dc_split) * static
    return A, B, B_g, C, D


def fault_scales(cfg):
    scales = np.ones(cfg.plant.m)
    if cfg.fault.enabled:
        scales[list(cfg.fault.failed)] = 0.0
        for i, s in cfg.fault.scaled:
            scales[i] = s
    return scales


def gust_series(cfg, t):
    """1-cos gust angle at plant times t, from the config."""
    g = cfg.gust
    alpha = np.zeros_like(t)
    if not g.enabled:
        return alpha
    s = t - g.d_gw / g.v
    on = (s >= 0.0) & (s < g.repeat / g.f_g)
    alpha[on] = 0.5 * g.a_g * (1.0 - np.cos(2.0 * np.pi * g.f_g * s[on] + g.phi))
    return alpha


def plant_reference(cfg, u_ticks):
    """Noise-free loads at every plant step for the logged tick commands.

    Transport delay as an index shift, the servo section as the bilinear
    transfer function run through lfilter, the fault scales, and exact
    zero-order hold of the modal block with command and gust held over
    each step.  Valid for backlash-off runs.
    """
    if cfg.actuators.backlash or cfg.actuators.instant:
        raise ValueError("the plant reference covers the linear actuator chain only")
    dt = cfg.dt_plant
    stride = int(round(cfg.dt_ctrl / dt))
    n_steps = int(round(cfg.duration / dt))
    depth = int(round(cfg.actuators.delay / dt))
    held = np.repeat(u_ticks, stride, axis=0)[:n_steps]
    delayed = np.zeros_like(held)
    delayed[depth:] = held[:n_steps - depth]
    a = cfg.actuators
    num, den = bilinear([a.omega ** 2], [1.0, 2.0 * a.zeta * a.omega, a.omega ** 2], fs=1.0 / dt)
    u_eff = lfilter(num, den, delayed, axis=0) * fault_scales(cfg)
    alpha = gust_series(cfg, np.arange(n_steps) * dt)

    A, B, B_g, C, D = reference_model(cfg)
    n = A.shape[0]
    inputs = np.hstack([u_eff, alpha[:, None]])
    aug = np.zeros((n + inputs.shape[1], n + inputs.shape[1]))
    aug[:n, :n] = A
    aug[:n, n:] = np.hstack([B, B_g[:, None]])
    phi = expm(aug * dt)
    Ad, Bd = phi[:n, :n], phi[:n, n:]
    forcing = inputs @ Bd.T
    x = np.zeros(n)
    states = np.empty((n_steps, n))
    for k in range(n_steps):
        x = Ad @ x + forcing[k]
        states[k] = x
    return states @ C.T + u_eff @ D.T


def check_plant(cfg, log):
    ref = plant_reference(cfg, log.u)
    peak = float(np.max(np.abs(ref)))
    err = float(np.max(np.abs(log.y_true_plant - ref)))
    if not err <= PLANT_REL_TOL * max(peak, 1.0):
        return [f"plant reference: {log.controller} loads differ by {err:.3e} "
                f"at peak {peak:.3e} (tolerance {PLANT_REL_TOL:g} of peak)"]
    return []


# ---------------------------------------------------------------- limits


def check_limits(cfg, log, rate_and_adjacency=True):
    """Position, rate and adjacent-pair limits on every logged tick.

    The LQG baseline only clamps to position limits, so its runs are
    checked for position alone.
    """
    lim = cfg.limits
    u = log.u
    out = []
    worst = float(np.max(np.abs(u)))
    if worst > lim.position + LIMIT_TOL:
        out.append(f"limits: {log.controller} |u| reaches {worst:.12g} > {lim.position:g}")
    if not rate_and_adjacency:
        return out
    prev = np.vstack([np.zeros((1, u.shape[1])), u[:-1]])
    step = float(np.max(np.abs(u - prev)))
    if step > lim.rate * cfg.dt_ctrl + LIMIT_TOL:
        out.append(f"limits: {log.controller} |du| reaches {step:.12g} > {lim.rate * cfg.dt_ctrl:g}")
    adj = np.where(np.arange(u.shape[1] - 1) % 2 == 0, lim.adj_even, lim.adj_odd)
    gap = np.abs(u[:, :-1] - u[:, 1:]) - adj
    if float(np.max(gap)) > LIMIT_TOL:
        out.append(f"limits: {log.controller} adjacent gap exceeds its bound by {float(np.max(gap)):.6g}")
    return out


def check_polynomial(cfg, log):
    """Virtual-shape commands lie on a degree-(q-1) polynomial of x/half_span."""
    xs = SERVO_STATIONS / cfg.plant.half_span
    V = np.polynomial.polynomial.polyvander(xs, cfg.q - 1)
    coef, *_ = np.linalg.lstsq(V, log.u.T, rcond=None)
    resid = float(np.max(np.abs(V @ coef - log.u.T)))
    scale = max(1.0, float(np.max(np.abs(log.u))))
    if resid > POLY_TOL * scale:
        return [f"shape: {log.controller} commands leave the degree-{cfg.q - 1} "
                f"polynomial by {resid:.3e}"]
    return []


def check_reductions(report):
    red = report.reductions()
    if not np.all(red > 0.0):
        return [f"reductions: {report.controller} reductions {np.round(red, 4).tolist()} not all > 0"]
    return []


def check_binding(log):
    if int(np.sum(log.sat_flags)) < 1:
        return [f"binding: {log.controller} run has no binding tick"]
    return []


# ---------------------------------------------------------------- allocator


def chebyshev_basis(cfg):
    x = 2.0 * SERVO_STATIONS / cfg.plant.half_span - 1.0
    return np.polynomial.chebyshev.chebvander(x, cfg.q - 1)


def least_distance_qp(H, g, A, b):
    """min 0.5 x'Hx + g'x s.t. A x <= b, as a least-distance program.

    With H = L L' and z = L'x + L^-1 g the problem is min |z| s.t.
    G z >= h, G = -A L'^-1, h = -b - A H^-1 g, which NNLS solves exactly
    (Lawson & Hanson, ch. 23).
    """
    L = np.linalg.cholesky(H)
    Linv_g = solve_triangular(L, g, lower=True)
    G = -solve_triangular(L, A.T, lower=True).T          # -A L'^-1
    h = -b - A @ cho_solve((L, True), g)
    E = np.vstack([G.T, h[None, :]])
    f = np.zeros(E.shape[0])
    f[-1] = 1.0
    w, _ = nnls(E, f, maxiter=50 * E.shape[1])
    r = E @ w - f
    if abs(r[-1]) < 1e-14:
        raise ValueError("least-distance program infeasible")
    z = -r[:-1] / r[-1]
    return solve_triangular(L.T, z - Linv_g, lower=False)


def _objective(H, g, x):
    return 0.5 * x @ H @ x + g @ x


def check_allocation(cfg, mode, problem, result):
    """Compare one captured allocation against the least-distance oracle."""
    B, t = problem.B_eff, problem.target
    A, b = problem.ineq.A, problem.ineq.b
    du_pref = problem.u_star - problem.u0
    if mode == "qp-v":
        Phi = chebyshev_basis(cfg)
        B = B @ Phi
        A = A @ Phi
        du_pref = np.linalg.lstsq(Phi, du_pref, rcond=None)[0]
        W2 = problem.W2 if problem.W2.shape[0] == Phi.shape[1] else np.eye(Phi.shape[1])
        x = result.delta_u_virtual
    else:
        W2 = problem.W2
        x = result.delta_u
    H = B.T @ problem.W1 @ B + problem.sigma * W2
    g = -B.T @ problem.W1 @ t - problem.sigma * W2 @ du_pref
    x_ref = least_distance_qp(H, g, A, b)
    gap = _objective(H, g, x) - _objective(H, g, x_ref)
    viol = float(np.max(problem.ineq.A @ result.delta_u - problem.ineq.b))
    out = []
    if not gap <= ORACLE_GAP_TOL:
        out.append(f"oracle: {mode} objective gap {gap:.3e} > {ORACLE_GAP_TOL:g}")
    if not viol <= ORACLE_VIOL_TOL:
        out.append(f"oracle: {mode} constraint violation {viol:.3e} > {ORACLE_VIOL_TOL:g}")
    return out, gap, viol


def oracle_sample(captured, every=10):
    """Every binding solve plus every `every`-th solve of each controller."""
    return [c for i, c in enumerate(captured) if len(c[2].active_set) > 0 or i % every == 0]
