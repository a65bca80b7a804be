"""Incremental load controller and its boundedness certificates.

The controller output is the pair of integrated wing-root loads, so the
output derivative is the measured loads themselves — no numerical
differentiation appears anywhere in the loop.  Each tick the controller
forms a pseudo-control from the load references and the integral
tracking error, subtracts the current measured loads, and asks an
allocator for a command increment realizing the difference.

Measured loads lag the issued commands (servo dynamics, transport
delay, measurement low pass).  A lag model of that chain runs on the
commanded-load signal so the controller can subtract the response it
has already commanded but not yet seen; without this correction the
pure incremental loop at 66.7 Hz is unstable against the combined lag.
The increment itself is still taken from the last issued command, so
the compiled position/rate/relative constraints remain exact.  Up to
the allocation a tick is one product with a map built once.
"""

import functools
from dataclasses import dataclass, field

import numpy as np

from .allocator import AllocationProblem, CompiledQP, allocate_qp, allocate_qp_virtual
from .constraints import assemble, rate_box
from .errors import (
    ConfigError, DimensionMismatch, GainNotContractive, InfeasibleCurrentState, NotHurwitz,
    RankDeficient)
from .numerics import (
    SecondOrderFilter,
    delay_chain,
    hurwitz_margin,
    pseudo_inverse,
    solve_lyapunov,
)
from .plant import MEAS_OMEGA, MEAS_ZETA


@functools.cache
def tick_dtype(m, q, p, /):
    """A controller's tick record: command u, shape coefficients u_v, then nu_c,
    hedge, eps_ca, e, iterations and saturated; zero where a controller has none.
    Float fields come first, packed as m + q + 4p floats.  One object per (m, q, p),
    since numpy copies records between distinct equal dtypes field by field."""
    return np.dtype([("u", float, (m,)), ("u_v", float, (q,)), ("nu_c", float, (p,)),
                     ("hedge", float, (p,)), ("eps_ca", float, (p,)), ("e", float, (p,)),
                     ("iterations", int), ("saturated", bool)])


class LagModel:
    """Discrete model of the command-to-measurement lag chain.

    An integer-tick transport delay followed by a cascade of
    second-order sections, run on the commanded-load vector from rest.
    The delay line (a delay_ticks-state shift register) and the sections'
    state-space blocks are joined in series once, into one map
    T = [[A, B], [C, D]] from [state; input] to [state'; output], one
    column per channel, which IndiController folds into its tick map.
    """

    def __init__(self, filters, delay_ticks):
        self.filters = list(filters)
        self.delay_ticks = delay_ticks
        A, B, C, D = delay_chain(delay_ticks, self.filters)
        self.T = np.block([[A, B], [C, D]])


def default_lag_model(dt, zeta, omega, delay_ticks, with_measurement_filter=True):
    """Lag model of the command-to-measurement chain.

    Servo section (zeta, omega), delay_ticks controller ticks of
    transport delay, and the plant's measurement low pass when it is in
    the loop.
    """
    filters = [SecondOrderFilter(zeta, omega, dt)]
    if with_measurement_filter:
        filters.append(SecondOrderFilter(MEAS_ZETA, MEAS_OMEGA, dt))
    return LagModel(filters, delay_ticks=delay_ticks)


class IndiController:
    """Incremental controller with constrained allocation.

    mode selects the allocation route: "pi" (pseudo-inverse, no
    constraints), "qp" (servo-space QP), "qp-v" (QP over virtual shape
    coefficients; requires basis).  lag_model is a LagModel, or None for
    no hedge.  Built once here: the row-rank check of B_eff Phi ("qp-v"),
    the allocation QP's constant parts, and a map from [e; lag state; u_prev;
    y_meas; y_ref] to [e'; lag state'; nu_c; hedge; target] (and the unclipped
    command for "pi").  The lag steps on the last command at a tick's start.
    It observes y_filt; each step overwrites its tick record last in place,
    where u_v sums the "qp-v" increments and saturated marks a binding tick.
    """

    def __init__(self, B_eff, K, limits, dt, mode="qp-v", basis=None, sigma=1e-3, *,
                 lag_model):
        self.B_eff = np.atleast_2d(np.asarray(B_eff, dtype=float))
        p, m = self.B_eff.shape
        self.K = np.asarray(K, dtype=float)
        if hurwitz_margin(-self.K) >= 0.0:
            raise NotHurwitz("error-feedback gain must make -K Hurwitz")
        self.limits = limits
        self.dt = dt
        self.mode = mode
        self.basis = basis
        if mode not in ("pi", "qp", "qp-v"):
            raise ConfigError(f'mode must be "pi", "qp" or "qp-v", got {mode!r}')
        if mode == "qp-v" and basis is None:
            raise ConfigError("virtual-shape mode needs a basis")
        if mode == "qp-v" and np.linalg.matrix_rank(self.B_eff @ basis.Phi, tol=1e-10) < p:
            raise RankDeficient("effectiveness composed with the shape basis lost row rank")
        self.sigma = sigma
        self._qp = None if mode == "pi" else CompiledQP(
            self.B_eff, sigma, limits.A, basis.Phi if mode == "qp-v" else None)
        self.lag = lag_model
        # without a lag model, T = [[1]] passes the commanded loads through: zero hedge
        T = np.ones((1, 1)) if lag_model is None else lag_model.T
        n, I = p * len(T), np.eye(p)    # n: e and the lag state
        e, s, u, y, r = np.split(np.eye(n + m + 2 * p), np.cumsum([p, n - p, m, p]))
        e1 = e + dt * (y - r)
        v = self.B_eff @ u               # the commanded loads
        hedge = v - np.kron(T[-1:, :-1], I) @ s - T[-1, -1] * v
        nu_c = r - self.K @ e1
        target = nu_c - y - hedge
        rows = [e1, np.kron(T[:-1, :-1], I) @ s + np.kron(T[:-1, -1:], I) @ v, nu_c, hedge, target]
        if mode == "pi":
            rows.append(u + pseudo_inverse(self.B_eff) @ target)
        self._T = np.vstack(rows)
        self.u_prev = np.zeros(m)
        self._warm = ()
        self.observes = "y_filt"
        q = 0 if basis is None else basis.q
        self.last = np.zeros((), tick_dtype(m, q, p))
        # views built once: of the map's input z, of its output r, and of the record's
        # fields.  _state is e, then the lag state: one column per load, row by row;
        # u_v, the record's own field, sums the "qp-v" increments
        self._z, self._r = np.zeros(self._T.shape[1]), np.empty(len(self._T))
        self._state, self._z_u, self._z_y, self._z_r = np.split(self._z, np.cumsum([n, m, p]))
        self._e = self._state[:p]
        self._r_state, self._r_loads, self._target, self._r_u = np.split(
            self._r, np.cumsum([n, 2 * p, p]))
        self._rec_u, self.u_v, self._rec_loads, self._rec_eps, self._rec_e = np.split(
            np.frombuffer(self.last, float, m + q + 4 * p), np.cumsum([m, q, 2 * p, p]))
        self._rec_iterations, self._rec_saturated = self.last["iterations"], self.last["saturated"]
        self._shapes = ((m,), (p,), (p,))   # u_prev, y_meas, y_ref: a view write broadcasts

    def step(self, y_meas, y_ref):
        """One controller tick: measured loads in, total command out.

        y_meas are the filtered load measurements, y_ref the load
        references (which are also the derivative of the integrated-load
        reference, so they enter the pseudo-control directly).  The tick
        goes into last until the next step; the command is a new array.
        """
        if (np.shape(self.u_prev), np.shape(y_meas), np.shape(y_ref)) != self._shapes:
            raise DimensionMismatch(f"u_prev, y_meas, y_ref must have shapes {self._shapes}")
        self._z_u[...], self._z_y[...], self._z_r[...] = self.u_prev, y_meas, y_ref
        np.dot(self._T, self._z, out=self._r)   # the gemv of @, with less dispatch
        self._state[...] = self._r_state

        if self.mode == "pi":
            u = np.minimum(np.maximum(self._r_u, self.limits.u_min), self.limits.u_max)
            np.subtract(self.B_eff @ (u - self.u_prev), self._target, out=self._rec_eps)
        else:
            try:
                ineq, qp, warm = assemble(self.limits, self.u_prev), self._qp, self._warm
            except InfeasibleCurrentState:
                # the rate box has rows of its own: its QP is compiled on the tick,
                # starts cold and leaves no warm start for the compiled one
                ineq, qp, warm = rate_box(self.limits), None, ()
            # target copied: the next tick overwrites r
            problem = AllocationProblem(self.B_eff, self._target.copy(), self.sigma, self.u_prev,
                                        ineq)
            if self.mode == "qp-v":
                res = allocate_qp_virtual(problem, self.basis.Phi, warm_start=warm, compiled=qp)
                self.u_v += res.delta_u_virtual
            else:
                res = allocate_qp(problem, warm_start=warm, compiled=qp)
            self._warm = () if qp is None else res.active_set
            u = self.u_prev + res.delta_u
            self._rec_eps[...] = res.eps_ca
            self._rec_iterations[()], self._rec_saturated[()] = res.iterations, bool(res.active_set)

        self.u_prev = self._rec_u[...] = u
        self._rec_loads[...], self._rec_e[...] = self._r_loads, self._e
        return u


@dataclass
class BoundCertificate:
    """Numerical boundedness certificate evaluated on a logged run."""

    P: np.ndarray
    mu1: float
    b_bar: float
    eps_bar_estimate: float
    ultimate_bound: float
    recursion_bound: float
    dnu_bar: float
    eps_ca_bar: float
    residual_bar: float
    eps_tail_max: float
    e_tail_max: float
    recursion_ok: bool
    ultimate_ok: bool
    max_identity_residual: float = field(default=np.nan)


def recursion_terms(nu_c, eps_ca, y_true, B_true, B_model):
    """Per-tick pieces of the incremental-error recursion.

    eps(k) = y_true(k) - nu_c(k-1) is the realized pseudo-control error;
    the recursion predicts eps(k+1) = E (eps(k) - dnu_c(k)) + K_B
    eps_ca(k) + r(k) with E = I - K_B, K_B = B_true B_model^+, and r(k)
    absorbing linearization remainder plus disturbance increments.
    Returns (eps, dnu, residual r).
    """
    nu_c = np.asarray(nu_c, dtype=float)
    eps_ca = np.asarray(eps_ca, dtype=float)
    y_true = np.asarray(y_true, dtype=float)
    K_B = np.atleast_2d(B_true) @ pseudo_inverse(np.atleast_2d(B_model))
    E = np.eye(K_B.shape[0]) - K_B
    eps = y_true[1:] - nu_c[:-1]          # eps[j] is eps(k=j+1)
    dnu = np.diff(nu_c, axis=0)           # dnu[j] = nu_c(j+1) - nu_c(j)
    # residual r(k) for k = 1..N-2: eps(k+1) - E(eps(k) - dnu(k-1)) - K_B eps_ca(k),
    # with eps(k) - dnu(k-1) = y(k) - nu_c(k) the pre-increment error
    pred = (eps[:-1] - dnu[:-1]) @ E.T + eps_ca[1:-1] @ K_B.T
    residual = eps[1:] - pred
    return eps, dnu, residual


def certify_bounds(K, B_true, B_model, nu_c, eps_ca, y_true, e_log, theta1=0.5):
    """Evaluate the ultimate-bound and recursion-bound certificates.

    Inputs are tick-rate logs: nu_c and eps_ca as issued, y_true the
    noise-free plant loads sampled at the ticks, e_log the integral
    tracking error.  Raises GainNotContractive when the effectiveness
    mismatch gain b_bar reaches 1.
    """
    K = np.asarray(K, dtype=float)
    K_B = np.atleast_2d(B_true) @ pseudo_inverse(np.atleast_2d(B_model))
    b_bar = float(np.linalg.norm(np.eye(K_B.shape[0]) - K_B, 2))
    if b_bar >= 1.0:
        raise GainNotContractive(f"effectiveness mismatch gain {b_bar:.3f} >= 1")

    P = solve_lyapunov(-K, np.eye(K.shape[0]))
    mu1 = 2.0 * float(np.linalg.norm(P, 2)) / (1.0 - theta1)
    eigs = np.linalg.eigvalsh(P)
    cond_sqrt = float(np.sqrt(eigs[-1] / eigs[0]))

    eps, dnu, residual = recursion_terms(nu_c, eps_ca, y_true, B_true, B_model)
    eps_norm = np.linalg.norm(eps, axis=1)
    eps_bar = float(np.max(eps_norm))
    dnu_bar = float(np.max(np.linalg.norm(dnu, axis=1)))
    eps_ca_bar = float(np.max(np.linalg.norm(np.asarray(eps_ca), axis=1)))
    residual_bar = float(np.max(np.linalg.norm(residual, axis=1))) if len(residual) else 0.0

    recursion_bound = (dnu_bar * b_bar + residual_bar + (b_bar + 1.0) * eps_ca_bar) / (1.0 - b_bar)
    ultimate_bound = cond_sqrt * mu1 * eps_bar

    half = len(eps_norm) // 2
    eps_tail = float(np.max(eps_norm[half:]))
    e_norm = np.linalg.norm(np.asarray(e_log, dtype=float), axis=1)
    e_tail = float(np.max(e_norm[len(e_norm) // 2:]))

    return BoundCertificate(
        P=P, mu1=mu1, b_bar=b_bar, eps_bar_estimate=eps_bar,
        ultimate_bound=ultimate_bound, recursion_bound=recursion_bound,
        dnu_bar=dnu_bar, eps_ca_bar=eps_ca_bar, residual_bar=residual_bar,
        eps_tail_max=eps_tail, e_tail_max=e_tail,
        recursion_ok=eps_tail <= recursion_bound + 1e-12,
        ultimate_ok=e_tail <= ultimate_bound + 1e-12,
    )
