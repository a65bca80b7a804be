"""Baseline controller: integral-augmented LQR plus steady-state Kalman
filter, commanding through the virtual shape basis.

The regulator is designed on an identified model (the truth perturbed by
a configured multiplicative error), not on the twin itself: this
controller needs the full state-space model, and the comparison is only
meaningful when that model is imperfect.  There is no constrained
allocation on this path; commands are clamped to position limits at the
end and the saturation is flagged.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch, NonFiniteState, NotDetectable, NotStabilizable, NoStabilizingSolution)
from .indi import tick_dtype
from .numerics import hurwitz_margin, integrate_step, solve_care


@dataclass
class DesignModel:
    """State-space quadruple plus gust column used for control design."""

    A: np.ndarray
    B: np.ndarray
    B_g: np.ndarray
    C: np.ndarray
    D: np.ndarray


def perturb_model(model, rel=0.1, seed=0):
    """Identified-model stand-in: truth with multiplicative entry noise."""
    rng = np.random.default_rng(seed)

    def p(M):
        M = np.asarray(M, dtype=float)
        return M * (1.0 + rel * rng.uniform(-1.0, 1.0, size=M.shape))

    return DesignModel(A=p(model.A), B=p(model.B), B_g=p(model.B_g),
                       C=p(model.C), D=p(model.D))


@dataclass
class LqrDesign:
    A_aug: np.ndarray
    B_aug: np.ndarray
    Q: np.ndarray
    R: np.ndarray
    S: np.ndarray
    K_X: np.ndarray
    K_r: np.ndarray


def design_lqr(design_model, Phi, q_int_weight=10.0, r_weight=260.0):
    """Integral-augmented regulator over the virtual input coefficients.

    The plant state is augmented with the integral of the load tracking
    error; the weights penalize the load outputs, the integral states
    (q_int_weight), and the virtual inputs (r_weight).
    """
    A, B = design_model.A, design_model.B
    C_b, D_b = design_model.C, design_model.D
    Phi = np.asarray(Phi, dtype=float)
    n = A.shape[0]
    p = C_b.shape[0]
    q = Phi.shape[1]
    A_aug = np.block([[A, np.zeros((n, p))], [C_b, np.zeros((p, p))]])
    B_aug = np.vstack([B, D_b]) @ Phi
    Q = np.zeros((n + p, n + p))
    Q[:n, :n] = C_b.T @ C_b
    Q[n:, n:] = q_int_weight * np.eye(p)
    R = r_weight * np.eye(q)
    try:
        S = solve_care(A_aug, B_aug, Q, R)
    except NoStabilizingSolution as exc:
        raise NotStabilizable(str(exc)) from exc
    K_X = -np.linalg.solve(R, B_aug.T @ S)
    if hurwitz_margin(A_aug + B_aug @ K_X) >= 0.0:
        raise NotStabilizable("regulator failed to stabilize the augmented system")
    M = S @ B_aug @ np.linalg.solve(R, B_aug.T) - A_aug.T
    K_r = -np.linalg.solve(R, B_aug.T @ np.linalg.solve(M, S))
    return LqrDesign(A_aug=A_aug, B_aug=B_aug, Q=Q, R=R, S=S, K_X=K_X, K_r=K_r)


@dataclass
class KalmanDesign:
    L: np.ndarray
    Q_k: np.ndarray
    R_k: np.ndarray
    N_k: np.ndarray


def design_kalman(design_model, Q_k, R_k, N_k):
    """Steady-state filter gain with process/measurement noise cross term.

    The scalar process noise enters through the gust column.  The cross
    covariance N_k is handled by the standard shift of the filter
    Riccati data; the gain is L = (P C' + G N_k) R_k^-1.
    """
    A, C = design_model.A, design_model.C
    G = design_model.B_g.reshape(-1, 1)
    Q_k = np.atleast_2d(np.asarray(Q_k, dtype=float))
    R_k = np.atleast_2d(np.asarray(R_k, dtype=float))
    N_k = np.asarray(N_k, dtype=float).reshape(1, -1)
    Rinv_N = np.linalg.solve(R_k, N_k.T)      # p x 1
    A_s = A - G @ Rinv_N.T @ C
    Q_s = G @ (Q_k - N_k @ Rinv_N) @ G.T
    # guard: the shifted process covariance must stay PSD
    Q_s = 0.5 * (Q_s + Q_s.T)
    w = np.linalg.eigvalsh(Q_s)
    if w[0] < -1e-12 * max(1.0, float(w[-1])):
        raise NotDetectable("cross covariance exceeds process covariance; filter data invalid")
    Q_s = Q_s - min(w[0], 0.0) * np.eye(A.shape[0])
    try:
        P = solve_care(A_s.T, C.T, Q_s, R_k)
    except NoStabilizingSolution as exc:
        raise NotDetectable(str(exc)) from exc
    L = (P @ C.T + G @ N_k) @ np.linalg.inv(R_k)
    if hurwitz_margin(A - L @ C) >= 0.0:
        raise NotDetectable("estimator dynamics not stable")
    return KalmanDesign(L=L, Q_k=Q_k, R_k=R_k, N_k=N_k)


class LqgController:
    """Closed-loop composition of the regulator and the state source.

    With a KalmanDesign it observes y_raw and its estimate feeds the
    regulator; with kalman=None it observes the modal state x (the
    idealized full-information case).  A tick is one product, as in
    IndiController, with a map built here from [x_hat; z_int; last
    integrand; u_prev; obs; y_ref] to [x_hat'; z_int'; integrand; u_v; u]:
    x_hat' is the Kalman filter's RK4 substeps over the tick (or obs), the
    integrand C x_hat' + D u_prev - y_ref feeds the trapezoid integral
    z_int, u_v = K_X [x_hat'; z_int'] + K_r [0; -y_ref] and u = Phi u_v.
    Commands are clamped to the position limits.  Each step overwrites u,
    u_v and saturated (a clamped tick) of its tick record last in place.
    """

    def __init__(self, lqr, design_model, Phi, limits, dt, kalman=None):
        A, B, C, D = design_model.A, design_model.B, design_model.C, design_model.D
        (m, q), (p, n) = np.shape(Phi), C.shape
        sizes = [n, p, p, m, n if kalman is None else p, p]
        x, z, w, u, y, r = np.split(np.eye(sum(sizes)), np.cumsum(sizes[:-1]))
        x1, self.n_sub = y, 1
        if kalman is not None:
            # the estimator can be much faster than the controller tick, so
            # take enough RK4 substeps to keep fixed-step RK4 stable
            L = kalman.L
            lam = np.max(np.abs(np.linalg.eigvals(A - L @ C)))
            self.n_sub = max(1, int(np.ceil(dt * float(lam) / 2.0)))
            # x' = (A - LC) x + (B - LD) u + L y with u and y held over the
            # tick: the substeps' map of [x; u; y] is read off one RK4
            # substep of the augmented system applied to the identity
            aug = np.zeros((n + m + p, n + m + p))
            aug[:n] = np.hstack([A - L @ C, B - L @ D, L])
            sub = integrate_step(lambda v, _: aug @ v, np.eye(n + m + p), None, dt / self.n_sub)
            x1 = np.linalg.matrix_power(sub, self.n_sub)[:n] @ np.vstack([x, u, y])
        g = C @ x1 + D @ u - r
        z1 = z + 0.5 * dt * (g + w)
        u_v = lqr.K_X @ np.vstack([x1, z1]) - lqr.K_r[:, n:] @ r
        self._T = np.vstack([x1, z1, g, u_v, np.asarray(Phi, dtype=float) @ u_v])
        self.limits = limits
        self.u_prev = np.zeros(m)
        self.observes = "x" if kalman is None else "y_raw"
        self.last = np.zeros((), tick_dtype(m, q, p))
        # views built once, as in IndiController: of the map's input z (its first
        # n + 2p entries the state x_hat, z_int, the last integrand), of its output
        # r, and of the record's fields
        self._z, self._r, self._n = np.zeros(self._T.shape[1]), np.empty(len(self._T)), n
        self._state, self._z_u, self._z_obs, self._z_r = np.split(
            self._z, np.cumsum([n + 2 * p, m, sizes[4]]))
        self._r_state, self._r_u_v, self._r_u = np.split(self._r, np.cumsum([n + 2 * p, q]))
        self._rec_u, self._rec_u_v = np.split(np.frombuffer(self.last, float, m + q), [m])
        self._rec_saturated = self.last["saturated"]
        self._shapes = ((m,), (sizes[4],), (p,))   # u_prev, obs, y_ref: a view write broadcasts

    @property
    def x_hat(self):
        """A copy of the state estimate: the observed state in the full-information case."""
        return self._state[:self._n].copy()

    def step(self, obs, y_ref):
        """One controller tick: the observed signal in, a new servo command out."""
        if (np.shape(self.u_prev), np.shape(obs), np.shape(y_ref)) != self._shapes:
            raise DimensionMismatch(f"u_prev, obs, y_ref must have shapes {self._shapes}")
        self._z_u[...], self._z_obs[...], self._z_r[...] = self.u_prev, obs, y_ref
        np.dot(self._T, self._z, out=self._r)   # the gemv of @, with less dispatch
        if np.count_nonzero(np.isfinite(self._r_state)) < self._r_state.size:
            raise NonFiniteState("estimator produced non-finite state")
        self._state[...] = self._r_state
        u_clamped = np.minimum(np.maximum(self._r_u, self.limits.u_min), self.limits.u_max)
        self._rec_u_v[...] = self._r_u_v
        self._rec_saturated[()] = np.count_nonzero(self._r_u != u_clamped) > 0
        self.u_prev = self._rec_u[...] = u_clamped
        return u_clamped
