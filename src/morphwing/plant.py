"""Digital twin of the morphing-wing bench environment.

Linear modal wing model with wing-root shear force and bending moment
outputs, per-servo second-order actuators behind a transport delay,
optional backlash, channel fault scaling, a "1-cos" gust input, colored
measurement noise, and the measurement low-pass filter.  Runs at a fixed
1 kHz step while controllers tick every 15th step.

The twin advances a block of plant steps per call (one controller tick)
with the command held, as two products with maps precomputed from the
per-step recursions (numerics.BlockMap) around backlash, the only
nonlinearity, which runs row by row.  Before it, the transport delay and
the servo section form one map whose input is the held command.  After
it, the modal RK4 step, the noise-shaping filter and the measurement low
pass form one map with inputs [u_eff, alpha, white noise].  The time
grid and the gust angle are evaluated a chunk of steps at a time.

A run with no controller holds a zero command from rest, so the bank
outputs one constant row and coast() runs the post-backlash map as
lifted block products, one block per tick, with no per-tick loop.
"""

from dataclasses import dataclass

import numpy as np

from .errors import BadDimension, NonFiniteState
from .numerics import BlockMap, SecondOrderFilter, delay_chain, integrate_step

DT_PLANT = 0.001
DEFAULT_LOCATIONS = np.linspace(0.15, 1.8, 12)
# Servo section and measurement low pass of the bench: damping, rad/s.
SERVO_ZETA, SERVO_OMEGA = 0.71, 16.52
MEAS_ZETA, MEAS_OMEGA = 0.8, 10.0
# Plant steps of time grid and gust angle evaluated at once; also about
# the steps of one chunk of coast's lifted products.
GUST_CHUNK = 1000


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

    The transport delay (`depth` plant-step registers, oldest first) and
    the servo section are one linear map per channel with depth + 2
    states.  A block holds one command, so its map (built once per block
    length) takes [state; command] and returns every step's servo output
    and the new state in one product.  instant=True bypasses
    delay/lag/backlash entirely (used by the certificate identity
    scenario where the command must take effect within one tick).
    """

    def __init__(self, m, dt=DT_PLANT, zeta=SERVO_ZETA, omega=SERVO_OMEGA, delay_s=0.015,
                 backlash_on=False, k1=1.0, k2=1.0, u_f_plus=0.6, u_f_minus=-0.6,
                 instant=False):
        self.m = m
        self.instant = instant
        self.depth = int(round(delay_s / dt))
        self.filter = SecondOrderFilter(zeta, omega, dt, channels=m)
        self.servo = BlockMap(*delay_chain(self.depth, [self.filter]))
        # [delay registers, oldest first; servo states; command], one column per channel
        self._xu = np.zeros((self.depth + 3, m))
        self.backlash_on = backlash_on
        self.k1, self.k2 = k1, k2
        self.u_f_plus, self.u_f_minus = u_f_plus, u_f_minus
        self.tau = np.zeros(m)
        self.scales = np.ones(m)

    def step(self, u_cmd):
        return self.advance(u_cmd, 1)[0]

    def advance(self, u_cmd, n):
        """Effective deflections over n plant steps with u_cmd held, one row per step."""
        u = np.asarray(u_cmd, dtype=float)
        if self.instant:
            return np.tile(self.scales * u, (n, 1))
        xu, ns = self._xu, len(self._xu) - 1
        xu[-1] = u
        r = self.servo.tick(n, held=True) @ xu
        xu[:-1], v = r[:ns], r[ns:]
        if self.backlash_on:
            # backlash_step row by row, its engagement lines taken for the whole block
            hi, lo = self.k2 * (v - self.u_f_plus), self.k1 * (v - self.u_f_minus)
            for row, up, down in zip(v, hi, lo):
                self.tau = np.minimum(np.maximum(self.tau, up, out=row), down, out=row)
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
        return self.gain * self.filter.step(self.rng.standard_normal(self.std.size))


@dataclass
class PlantOutput:
    """One plant step's outputs, or one row per step for a block (per block for coast)."""

    y_true: np.ndarray   # noise-free loads
    y_raw: np.ndarray    # loads + colored noise
    y_filt: np.ndarray   # measurement-filtered raw loads
    alpha_g: float
    u_eff: np.ndarray


class WingSimulator:
    """Fixed-step closed-loop environment at the plant rate.

    A block of n steps with the command held is two products around the
    backlash loop: the actuator bank's held-command map, then one
    post-backlash map.  The modal part of that map is the RK4 step of
    integrate_step, read off one step of the system augmented with the
    held forcing f (f' = 0): the state rows of that step are
    [P(hA), h Q(hA)] in x+ = P(hA) x + h Q(hA) f, with the effective
    deflections and the gust angle as inputs and the loads C x+ + D u_eff
    after each step as outputs.  With noise, the same map also takes the
    white noise and holds the noise-shaping filter (its gain folded in)
    and the measurement low pass, so it returns [y_true, y_raw, y_filt];
    without noise it is the modal map alone.  `state` is the map's state
    and `x` its modal part.  The time grid and the gust angle are
    evaluated GUST_CHUNK steps at a time, as the same running sum of dt.
    """

    def __init__(self, model, actuators=None, noise=None, gust=None, dt=DT_PLANT):
        self.model = model
        self.dt = dt
        self.actuators = actuators or ActuatorBank(model.B.shape[1], dt=dt)
        self.noise = noise
        self.gust = gust
        self.meas_filter = SecondOrderFilter(MEAS_ZETA, MEAS_OMEGA, dt, channels=2)
        n = self._nx = model.A.shape[0]
        aug = np.zeros((2 * n, 2 * n))
        aug[:n, :n] = model.A
        aug[:n, n:] = np.eye(n)
        rk4 = integrate_step(lambda z, _: aug @ z, np.eye(2 * n), None, dt)[:n]
        Ad, Bd = rk4[:, :n], rk4[:, n:] @ np.hstack([model.B, model.B_g])
        Dd = model.C @ Bd
        Dd[:, :-1] += model.D
        post = (Ad, Bd, model.C @ Ad, Dd)
        if noise is not None:
            post = _measured(post, noise, self.meas_filter)
        self.post = BlockMap(*post)
        self.state = np.zeros(len(self.post.Ad))
        self._times, self._alpha, self._k = np.zeros(1), np.zeros(0), 0

    @property
    def x(self):
        """The modal state."""
        return self.state[:self._nx]

    @x.setter
    def x(self, value):
        self.state[:self._nx] = value

    @property
    def t(self):
        """Time after the steps taken, the running sum of dt."""
        return self._times[self._k]

    def step(self, u_cmd):
        """Advance one plant step with the command held constant."""
        out = self.advance(u_cmd, 1)
        return PlantOutput(y_true=out.y_true[0], y_raw=out.y_raw[0], y_filt=out.y_filt[0],
                           alpha_g=out.alpha_g[0], u_eff=out.u_eff[0])

    def advance(self, u_cmd, n):
        """Advance n plant steps with the command held; one output row per step."""
        u_eff = self.actuators.advance(u_cmd, n)
        if self._k + n > len(self._alpha):
            self._next_chunk(n)
        k, ns, m = self._k, len(self.state), u_eff.shape[1]
        alpha = self._alpha[k:k + n]
        xu = np.empty(ns + n * self.post.Bd.shape[1])
        xu[:ns] = self.state
        U = xu[ns:].reshape(n, -1)
        U[:, :m], U[:, m] = u_eff, alpha
        if self.noise is not None:
            # the white noise the noise model would draw, shaped inside the map
            U[:, m + 1:] = self.noise.rng.standard_normal((n, self.noise.std.size))
        r = self.post.tick(n) @ xu
        if not np.isfinite(r[:ns]).all():
            raise NonFiniteState("plant block produced non-finite state")
        self.state, self._k = r[:ns], k + n
        Y = r[ns:].reshape(n, -1)
        if self.noise is None:
            y_true, y_raw, y_filt = Y, Y.copy(), Y.copy()
        else:
            y_true, y_raw, y_filt = Y[:, :2], Y[:, 2:4], Y[:, 4:]
        return PlantOutput(y_true=y_true, y_raw=y_raw, y_filt=y_filt,
                           alpha_g=alpha, u_eff=u_eff)

    def coast(self, n, k):
        """n plant steps from rest with a zero command, as k-step blocks (ticks).

        Returns (X, y_true, held): the modal state at each block start,
        y_true at every step, and a PlantOutput with one row per block
        holding the outputs of the step before it (zero before the first).
        At rest under a zero command the actuator bank outputs one
        constant row, its backlash rest point times the fault scales, taken
        from one advance(0, 1).  The post-backlash map then runs as lifted
        block products (BlockMap.lifted) a chunk of about GUST_CHUNK steps
        at a time, evaluating only y_true at every step and every output at
        each block's last step.  The white noise is drawn from the same
        generator in the same order as advance draws it, and the time grid
        and the gust angle are the same running sum.
        """
        u_eff = self.actuators.advance(np.zeros(self.actuators.m), 1)[0]
        p, nv = self.post.Dd.shape
        m, blocks = len(u_eff), -(-n // k)
        # y_true of every step, then every output of the last step
        rows = np.r_[np.arange(2 * k) + np.arange(k).repeat(2) * (p - 2),
                     (k - 1) * p + np.arange(2, p)]
        X, y_true = np.empty((blocks, self._nx)), np.empty((n, 2))
        # per block start: the last step's outputs and gust angle
        held = np.zeros((blocks, p + 1))
        chunk = max(1, round(GUST_CHUNK / k))
        for b in range(0, blocks, chunk):
            steps = min(chunk * k, n - b * k)
            self._next_chunk(steps)
            U = np.empty((steps, nv))
            U[:, :m], U[:, m] = u_eff, self._alpha[:steps]
            if self.noise is not None:
                U[:, m + 1:] = self.noise.rng.standard_normal((steps, self.noise.std.size))
            S, Y, state = self.post.lifted(self.state, U, k, rows)
            if not (np.isfinite(S).all() and np.isfinite(state).all()):
                raise NonFiniteState("plant block produced non-finite state")
            self.state, self._k = state, steps
            X[b:b + len(S)] = S[:, :self._nx]
            y_true[b * k:b * k + steps] = Y[:, :2 * k].reshape(-1, 2)[:steps]
            ends = held[b + 1:b + 1 + len(S)]
            ends[:, :p] = Y[:len(ends), 2 * k - 2:]
            ends[:, p] = self._alpha[k - 1:steps:k][:len(ends)]
        y = held[:, :p] if self.noise is not None else np.tile(held[:, :2], 3)
        u_held = np.zeros((blocks, m))
        u_held[1:] = u_eff
        return X, y_true, PlantOutput(y_true=y[:, :2], y_raw=y[:, 2:4], y_filt=y[:, 4:],
                                      alpha_g=held[:, p], u_eff=u_held)

    def _next_chunk(self, n):
        """Times and gust angles of the next max(n, GUST_CHUNK) steps; np.cumsum
        is a sequential running sum, so t is bit for bit that of t += dt."""
        k = max(n, GUST_CHUNK)
        self._times = np.cumsum(np.concatenate([[self.t], np.full(k, self.dt)]))
        self._alpha = (gust_angle(self.gust, self._times[:k]) if self.gust is not None
                       else np.zeros(k))
        self._k = 0


def _measured(modal, noise, meas):
    """The modal map with the colored noise and the measurement low pass behind it.

    Inputs [u_eff, alpha, w] (w white), outputs [y_true, y_raw, y_filt],
    states [x, shaping filter, low pass].  y_raw = y_true + gain (Cs s +
    Ds w), and the low pass runs on y_raw.  Each filter's block is taken
    once per load channel (a Kronecker product with I).
    """
    Am, Bm, Cm, Dm = modal
    p, nx, nv = len(Cm), len(Am), Bm.shape[1]
    sh, lp = noise.filter.blocks, meas.blocks
    As, Bs, Cs, Ds = (np.kron(M, np.eye(p)) for M in (sh.Ad, sh.Bd, sh.Cd, sh.Dd))
    Al, Bl, Cl, Dl = (np.kron(M, np.eye(p)) for M in (lp.Ad, lp.Bd, lp.Cd, lp.Dd))
    Cs, Ds = noise.gain[:, None] * Cs, noise.gain[:, None] * Ds
    ns, nl, O = len(As), len(Al), np.zeros
    # y_raw over the states [x, s] and the inputs [u_eff, alpha, w]
    Craw, Draw = np.hstack([Cm, Cs]), np.hstack([Dm, Ds])
    A = np.block([[Am, O((nx, ns + nl))],
                  [O((ns, nx)), As, O((ns, nl))],
                  [Bl @ Craw, Al]])
    B = np.block([[Bm, O((nx, p))], [O((ns, nv)), Bs], [Bl @ Draw]])
    C = np.block([[Cm, O((p, ns + nl))], [Craw, O((p, nl))], [Dl @ Craw, Cl]])
    D = np.block([[Dm, O((p, p))], [Draw], [Dl @ Draw]])
    return A, B, C, D
