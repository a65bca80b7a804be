"""Digital twin of the morphing-wing bench environment.

Linear modal wing model with wing-root shear force and bending moment
outputs, per-servo second-order actuators behind a transport delay,
optional backlash, channel fault scaling, a "1-cos" gust input, colored
measurement noise, and the measurement low-pass filter.  Runs at a fixed
1 kHz step while controllers tick every 15th step.

The twin advances a block of plant steps per call (one controller tick)
with the command held.  Everything before and after the backlash is
linear, so each linear section runs its whole block as one product with
precomputed block maps (numerics.BlockMap): the servo filter, the modal
RK4 step, the noise shaping and the measurement low pass.  Backlash, the
only nonlinearity, runs row by row between the two.
"""

from dataclasses import dataclass

import numpy as np

from .errors import BadDimension, NonFiniteState
from .numerics import BlockMap, SecondOrderFilter, integrate_step

DT_PLANT = 0.001
DEFAULT_LOCATIONS = np.linspace(0.15, 1.8, 12)
# Servo section and measurement low pass of the bench: damping, rad/s.
SERVO_ZETA, SERVO_OMEGA = 0.71, 16.52
MEAS_ZETA, MEAS_OMEGA = 0.8, 10.0


@dataclass
class WingModel:
    """Modal state-space with load outputs.

    x' = A x + B u + B_g alpha_g;  loads = C x + D u.
    B_static is the steady-state command-to-load gain C(-A)^-1 B + D,
    which the construction makes exact by design.
    """

    A: np.ndarray
    B: np.ndarray
    B_g: np.ndarray
    C: np.ndarray
    D: np.ndarray
    B_static: np.ndarray
    locations: np.ndarray


def synthesize_wing_model(m=12, n_modes=2, locations=None, half_span=1.8,
                          fy_gain=2.8, gust_dc=(8.0, 7.6), mode_freqs=None,
                          mode_damp=None, dc_split=0.5):
    """Build a wing twin with an exactly known static effectiveness.

    Each mode is a damped oscillator feeding one load channel; the
    per-channel modal DC contributions sum to dc_split of the static
    gain and the feedthrough D supplies the rest, so B_static holds
    exactly.  The shear row of B_static is near uniform across servos
    while the moment row scales with the spanwise lever arm.
    """
    if n_modes < 1:
        raise BadDimension("need at least one mode")
    locations = DEFAULT_LOCATIONS if locations is None else np.asarray(locations, dtype=float)
    if locations.size != m:
        raise BadDimension(f"need {m} servo locations, got {locations.size}")
    # mild spanwise taper keeps the shear row realistic without breaking
    # the "roughly uniform" structure
    taper = 1.0 - 0.1 * (locations / half_span - 0.5)
    f_row = fy_gain * taper
    m_row = f_row * locations
    B_static = np.vstack([f_row, m_row])

    if mode_freqs is None:
        mode_freqs = np.geomspace(3.0, 7.0, n_modes) if n_modes > 1 else np.array([3.0])
    if mode_damp is None:
        mode_damp = np.full(n_modes, 0.6)
    mode_freqs = np.asarray(mode_freqs, dtype=float)
    mode_damp = np.asarray(mode_damp, dtype=float)

    channels = [j % 2 for j in range(n_modes)]
    n_per = [channels.count(0), channels.count(1)]
    # a single mode drives both channels so every load sees dynamics
    if n_per[1] == 0:
        channels = [0] * n_modes
        n_per = [n_modes, 0]

    n = 2 * n_modes
    A = np.zeros((n, n))
    B = np.zeros((n, m))
    B_g = np.zeros((n, 1))
    C = np.zeros((2, n))
    for j, (fj, zj, ch) in enumerate(zip(mode_freqs, mode_damp, channels)):
        wj = 2.0 * np.pi * fj
        i = 2 * j
        A[i, i + 1] = 1.0
        A[i + 1, i] = -wj * wj
        A[i + 1, i + 1] = -2.0 * zj * wj
        row = B_static[ch]
        B[i + 1, :] = row
        gamma = dc_split / n_per[ch]
        C[ch, i] = gamma * wj * wj
        # gust coupling sized so the channel's static gust gain is exact
        B_g[i + 1, 0] = gust_dc[ch] / dc_split

    if n_per[1] == 0:
        # degenerate single-channel case: moment loads are feedthrough only
        D = B_static - np.vstack([dc_split * f_row, np.zeros(m)])
    else:
        D = (1.0 - dc_split) * B_static
    return WingModel(A=A, B=B, B_g=B_g, C=C, D=D, B_static=B_static, locations=locations)


def backlash_step(tau, u, k1, k2, u_f_plus, u_f_minus):
    """One sample of the velocity-driven backlash law.

    The output rides the upper engagement line k2 (u - u_f+) while the
    drive pushes up, the lower line k1 (u - u_f-) while it pushes down,
    and holds in between.  For a monotone move within a sample this
    clip-based update is exact.
    """
    return np.minimum(np.maximum(tau, k2 * (np.asarray(u, dtype=float) - u_f_plus)),
                      k1 * (np.asarray(u, dtype=float) - u_f_minus))


@dataclass
class GustProfile:
    A_g: float
    f_g: float
    phi: float = 0.0
    d_gw: float = 0.0
    V: float = 1.0
    repeat: int = 1


def gust_angle(profile, t):
    """"1-cos" gust angle at time(s) t: zero before arrival and after `repeat` periods."""
    s = np.asarray(t, dtype=float) - profile.d_gw / profile.V
    on = (s >= 0.0) & (s < profile.repeat / profile.f_g)
    cos = np.cos(2.0 * np.pi * profile.f_g * s + profile.phi)
    return np.where(on, 0.5 * profile.A_g * (1.0 - cos), 0.0)[()]


class ActuatorBank:
    """m parallel actuator channels: delay, servo lag, backlash, scaling.

    The transport delay is a history of the last `depth` plant-rate
    commands.  instant=True bypasses delay/lag/backlash entirely (used by
    the certificate identity scenario where the command must take effect
    within one tick).
    """

    def __init__(self, m, dt=DT_PLANT, zeta=SERVO_ZETA, omega=SERVO_OMEGA, delay_s=0.015,
                 backlash_on=False, k1=1.0, k2=1.0, u_f_plus=0.6, u_f_minus=-0.6,
                 instant=False):
        self.m = m
        self.instant = instant
        self.depth = int(round(delay_s / dt))
        self.history = np.zeros((self.depth, m))
        self.filter = SecondOrderFilter(zeta, omega, dt, channels=m)
        self.backlash_on = backlash_on
        self.k1, self.k2 = k1, k2
        self.u_f_plus, self.u_f_minus = u_f_plus, u_f_minus
        self.tau = np.zeros(m)
        self.scales = np.ones(m)

    def step(self, u_cmd):
        return self.advance(u_cmd, 1)[0]

    def advance(self, u_cmd, n):
        """Effective deflections over n plant steps with u_cmd held, one row per step."""
        held = np.repeat(np.asarray(u_cmd, dtype=float)[None], n, axis=0)
        if self.instant:
            return self.scales * held
        held = np.concatenate([self.history, held])
        self.history = held[n:]
        v = self.filter.run(held[:n])
        if self.backlash_on:
            for row in v:
                self.tau = row[:] = backlash_step(self.tau, row, self.k1, self.k2,
                                                  self.u_f_plus, self.u_f_minus)
        return self.scales * v


def apply_fault(bank, failed=(8,), scaled=((7, 0.468), (9, 0.7348))):
    """Degrade actuator channels in place (indices 0-based).

    Default pattern: one dead channel flanked by two partially effective
    neighbors.  The controller's effectiveness model is left untouched
    by design — it was identified on the healthy system.
    """
    for i in failed:
        bank.scales[i] = 0.0
    for i, s in scaled:
        bank.scales[i] = s
    return bank


def _white_noise_output_std(filt):
    """Stationary output std of a SecondOrderFilter fed unit white noise."""
    Ad, Bd = filt.blocks.Ad, filt.blocks.Bd
    # P = Ad P Ad' + Bd Bd'
    n = 2
    M = np.eye(n * n) - np.kron(Ad, Ad)
    P = np.linalg.solve(M, (Bd @ Bd.T).reshape(-1)).reshape(n, n)
    var = P[0, 0] + filt.b[0] ** 2
    return float(np.sqrt(var))


class NoiseModel:
    """Colored measurement noise: seeded white noise through a low-pass
    shaping filter, normalized so the stationary output std hits the
    requested per-channel level."""

    def __init__(self, std, dt=DT_PLANT, seed=0, zeta=0.7, omega=30.0):
        self.std = np.asarray(std, dtype=float)
        self.rng = np.random.default_rng(seed)
        self.filter = SecondOrderFilter(zeta, omega, dt, channels=self.std.size)
        self.gain = self.std / _white_noise_output_std(self.filter)

    def step(self):
        return self.advance(1)[0]

    def advance(self, n):
        """n samples, one row each: one draw of (n, channels) through the filter."""
        return self.gain * self.filter.run(self.rng.standard_normal((n, self.std.size)))


@dataclass
class PlantOutput:
    """One plant step's outputs, or one row per step for a block."""

    y_true: np.ndarray   # noise-free loads
    y_raw: np.ndarray    # loads + colored noise
    y_filt: np.ndarray   # measurement-filtered raw loads
    alpha_g: float
    u_eff: np.ndarray


class WingSimulator:
    """Fixed-step closed-loop environment at the plant rate.

    The modal block map is the RK4 step of integrate_step, read off one
    step of the system augmented with the held forcing f (f' = 0): the
    state rows of that step are [P(hA), h Q(hA)] in
    x+ = P(hA) x + h Q(hA) f.  Its inputs are the effective deflections
    and the gust angle, its outputs the loads C x+ + D u_eff after each
    step.
    """

    def __init__(self, model, actuators=None, noise=None, gust=None, dt=DT_PLANT):
        self.model = model
        self.dt = dt
        self.actuators = actuators or ActuatorBank(model.B.shape[1], dt=dt)
        self.noise = noise
        self.gust = gust
        # the low pass exists to fight measurement noise; noise-free runs bypass it
        self.filter_measurements = noise is not None
        self.meas_filter = SecondOrderFilter(MEAS_ZETA, MEAS_OMEGA, dt, channels=2)
        n = model.A.shape[0]
        aug = np.zeros((2 * n, 2 * n))
        aug[:n, :n] = model.A
        aug[:n, n:] = np.eye(n)
        rk4 = integrate_step(lambda z, _: aug @ z, np.eye(2 * n), None, dt)[:n]
        Ad, Bd = rk4[:, :n], rk4[:, n:] @ np.hstack([model.B, model.B_g])
        Dd = model.C @ Bd
        Dd[:, :-1] += model.D
        self.modal = BlockMap(Ad, Bd, model.C @ Ad, Dd)
        self.x = np.zeros(n)
        self.t = 0.0

    def step(self, u_cmd):
        """Advance one plant step with the command held constant."""
        out = self.advance(u_cmd, 1)
        return PlantOutput(y_true=out.y_true[0], y_raw=out.y_raw[0], y_filt=out.y_filt[0],
                           alpha_g=out.alpha_g[0], u_eff=out.u_eff[0])

    def advance(self, u_cmd, n):
        """Advance n plant steps with the command held; one output row per step."""
        u_eff = self.actuators.advance(u_cmd, n)
        # the same running sum of dt as stepping one at a time
        t = np.cumsum(np.concatenate([[self.t], np.full(n, self.dt)]))
        alpha = gust_angle(self.gust, t[:n]) if self.gust is not None else np.zeros(n)
        y_true, x = self.modal.run(self.x, np.column_stack([u_eff, alpha]))
        if not np.all(np.isfinite(x)):
            raise NonFiniteState("plant block produced non-finite state")
        self.x, self.t = x[:, 0], t[n]
        y_true = y_true.reshape(n, 2)
        y_raw = y_true + self.noise.advance(n) if self.noise is not None else y_true.copy()
        y_filt = self.meas_filter.run(y_raw) if self.filter_measurements else y_raw.copy()
        return PlantOutput(y_true=y_true, y_raw=y_raw, y_filt=y_filt,
                           alpha_g=alpha, u_eff=u_eff)
