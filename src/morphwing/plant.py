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
pass form one map with inputs [u_eff, alpha, white noise].  One method,
_next_inputs, builds the inputs of every run path: the time grid, the
gust angle and the white noise of the steps a caller asks for, returned
in rows the caller holds.

A closed-loop run steps through closed_loop()'s tick: the bank writes
u_eff into the tick's input row, whose gust angles and white noise are
filled a chunk at a time, and one product with only the rows of the
post-backlash map that the run keeps writes the tick's row of the run
log.  advance() is the same map with every output row, one call per
block.  A run with no controller holds a zero command from rest, so the
bank outputs one constant row and coast() runs the post-backlash map as
lifted block products, one block per tick, committing each chunk of them
into the same run log (_run_log).
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import BadDimension, NonFiniteState
from .numerics import BlockMap, SecondOrderFilter, delay_chain, integrate_step

DT_PLANT = 0.001
DEFAULT_LOCATIONS = np.linspace(0.15, 1.8, 12)
# Servo section and measurement low pass of the bench: damping, rad/s.
SERVO_ZETA, SERVO_OMEGA = 0.71, 16.52
MEAS_ZETA, MEAS_OMEGA = 0.8, 10.0
# About the plant steps whose inputs closed_loop and coast take at once:
# one chunk of closed_loop's input rows and of coast's lifted products.
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


def synthesize_wing_model(spec):
    """Build a wing twin with an exactly known static effectiveness from a PlantConfig.

    Each mode is a damped oscillator feeding one load channel; the
    per-channel modal DC contributions sum to dc_split of the static
    gain and the feedthrough D supplies the rest, so B_static holds
    exactly.  The shear row of B_static is near uniform across servos
    while the moment row scales with the spanwise lever arm.
    """
    m, n_modes, dc_split, locations = spec.m, spec.n_modes, spec.dc_split, DEFAULT_LOCATIONS
    if n_modes < 1 or len(spec.mode_freqs) != n_modes:
        raise BadDimension(f"need a frequency for each of n_modes >= 1 modes, "
                           f"got {spec.mode_freqs!r} for {n_modes}")
    if locations.size != m:
        raise BadDimension(f"need {m} servo locations, got {locations.size}")
    # mild spanwise taper keeps the shear row realistic without breaking
    # the "roughly uniform" structure
    taper = 1.0 - 0.1 * (locations / spec.half_span - 0.5)
    f_row = spec.fy_gain * taper
    m_row = f_row * locations
    B_static = np.vstack([f_row, m_row])

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
    for j, (fj, ch) in enumerate(zip(spec.mode_freqs, channels)):
        wj = 2.0 * np.pi * fj
        i = 2 * j
        A[i, i + 1] = 1.0
        A[i + 1, i] = -wj * wj
        A[i + 1, i + 1] = -2.0 * spec.mode_damp * wj
        row = B_static[ch]
        B[i + 1, :] = row
        gamma = dc_split / n_per[ch]
        C[ch, i] = gamma * wj * wj
        # gust coupling sized so the channel's static gust gain is exact
        B_g[i + 1, 0] = spec.gust_dc[ch] / dc_split

    if n_per[1] == 0:
        # degenerate single-channel case: moment loads are feedthrough only
        D = B_static - np.vstack([dc_split * f_row, np.zeros(m)])
    else:
        D = (1.0 - dc_split) * B_static
    return WingModel(A=A, B=B, B_g=B_g, C=C, D=D, B_static=B_static, locations=locations)


# The plant's specs, which are also a scenario's sections (harness.ScenarioConfig).
@dataclass
class PlantConfig:
    m: int = 12
    n_modes: int = 2
    fy_gain: float = 3.36
    gust_dc: list = field(default_factory=lambda: [9.6, 9.12])
    mode_freqs: list = field(default_factory=lambda: [5.0, 8.0])
    mode_damp: float = 0.6
    dc_split: float = 0.5
    half_span: float = 1.8


@dataclass
class ActuatorConfig:
    zeta: float = SERVO_ZETA
    omega: float = SERVO_OMEGA
    delay: float = 0.015
    backlash: bool = False
    k1: float = 1.0
    k2: float = 1.0
    u_f_plus: float = 0.6
    u_f_minus: float = -0.6
    instant: bool = False


@dataclass
class GustConfig:
    enabled: bool = True
    a_g: float = 1.0
    f_g: float = 1.0
    phi: float = 0.0
    d_gw: float = 2.0
    v: float = 1.0
    repeat: int = 20


@dataclass
class FaultConfig:
    enabled: bool = False
    failed: list = field(default_factory=lambda: [8])
    scaled: list = field(default_factory=lambda: [[7, 0.468], [9, 0.7348]])


@dataclass
class NoiseConfig:
    enabled: bool = False
    std: float = 1.0
    seed: int = 100
    zeta: float = 0.7
    omega: float = 30.0


def gust_angle(gust, t):
    """"1-cos" gust angle at time(s) t: zero before arrival and after `repeat` periods."""
    s = np.asarray(t, dtype=float) - gust.d_gw / gust.v
    on = (s >= 0.0) & (s < gust.repeat / gust.f_g)
    cos = np.cos(2.0 * np.pi * gust.f_g * s + gust.phi)
    return np.where(on, 0.5 * gust.a_g * (1.0 - cos), 0.0)[()]


class ActuatorBank:
    """m parallel actuator channels: delay, servo lag, backlash, scaling.

    The transport delay (`depth` plant-step registers, oldest first) and
    the servo section are one linear map per channel with depth + 2
    states.  A block holds one command, so its map (built once per block
    length) takes [state; command] and returns every step's servo output
    and the new state in one product.  spec is an ActuatorConfig; its instant
    makes the chain empty, without backlash: every step's output is the held
    command times the fault scales, in effect from the step it is issued.
    """

    def __init__(self, m, spec, dt=DT_PLANT):
        self.m = m
        self.depth = 0 if spec.instant else int(round(spec.delay / dt))
        self.filter = SecondOrderFilter(spec.zeta, spec.omega, dt, channels=m)
        self.servo = BlockMap(*delay_chain(self.depth, [] if spec.instant else [self.filter]))
        # [delay registers, oldest first; servo states; command], one column per channel
        self._xu = np.zeros((len(self.servo.Ad) + 1, m))
        self._x, self._u = self._xu[:-1], self._xu[-1]
        self.backlash_on = spec.backlash and not spec.instant
        self.k1, self.k2 = spec.k1, spec.k2
        self.u_f_plus, self.u_f_minus = spec.u_f_plus, spec.u_f_minus
        self.tau = np.zeros(m)
        self._scales = np.ones(m)
        self._scales.flags.writeable = False
        self.healthy = True   # every scale is 1.0; set by apply_fault, the scales' only writer

    # read-only, so that no write skips apply_fault and leaves healthy stale
    scales = property(lambda self: self._scales)

    def step(self, u_cmd):
        return self.advance(u_cmd, 1)[0]

    def advance(self, u_cmd, n, out=None):
        """Effective deflections over n plant steps with u_cmd held, one row per
        step, written into out when it is given."""
        out = np.empty((n, self.m)) if out is None else out
        self._u[...] = u_cmd
        r, ns = np.dot(self.servo.tick(n, held=True), self._xu), len(self._x)
        self._x[...], v = r[:ns], r[ns:]
        if self.backlash_on:
            # backlash row by row: tau rides the engagement line k2 (v - u_f+) up,
            # k1 (v - u_f-) down, and holds in between; lines taken for the whole block
            hi, lo = self.k2 * (v - self.u_f_plus), self.k1 * (v - self.u_f_minus)
            for row, up, down in zip(v, hi, lo):
                self.tau = np.minimum(np.maximum(self.tau, up, out=row), down, out=row)
        if not self.healthy:
            return np.multiply(self._scales, v, out=out)
        out[...] = v   # unit scales: their product would be v bit for bit
        return out


def apply_fault(bank, fault):
    """Degrade actuator channels by a FaultConfig's pattern, enabled or not.

    The controller's effectiveness model is left untouched by design — it
    was identified on the healthy system.
    """
    scales = bank.scales.copy()
    for i in fault.failed:
        scales[i] = 0.0
    for i, s in fault.scaled:
        scales[i] = s
    scales.flags.writeable = False
    bank._scales, bank.healthy = scales, bool((scales == 1.0).all())
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
    """Colored measurement noise on both load channels: white noise seeded by a
    NoiseConfig through its low-pass shaping filter, normalized so the
    stationary output std is the spec's std."""

    def __init__(self, spec, dt=DT_PLANT):
        self.rng = np.random.default_rng(spec.seed)
        self.filter = SecondOrderFilter(spec.zeta, spec.omega, dt, channels=2)
        self.gain = spec.std / _white_noise_output_std(self.filter)

    def step(self):
        return self.gain * self.filter.step(self.rng.standard_normal(2))


@dataclass
class PlantOutput:
    """One plant step's outputs (step), or one row per step of a block (advance)."""

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
    and `x` its modal part; `t` is the time after the steps taken.
    The simulator builds its parts at its own dt from the plant's specs:
    the actuator bank from an ActuatorConfig (the default one if None),
    with a FaultConfig's pattern applied, and the noise model of a
    NoiseConfig.  A fault, noise or gust spec that is None or not enabled
    is none.  _next_inputs gives every path its input rows: the angle of
    gust (a GustConfig) on the running sum of dt and the white noise.
    advance() runs one block through the whole map; a closed-loop run
    ticks through closed_loop() and a run with no controller goes through
    coast(), which both fill one run log (_run_log) with only its rows.
    """

    def __init__(self, model, actuators=None, fault=None, noise=None, gust=None, dt=DT_PLANT):
        self.model = model
        self.dt = dt
        self.actuators = ActuatorBank(model.B.shape[1], actuators or ActuatorConfig(), dt)
        if fault is not None and fault.enabled:
            apply_fault(self.actuators, fault)
        self.noise = NoiseModel(noise, dt) if noise is not None and noise.enabled else None
        self.gust = gust if gust is not None and gust.enabled else None
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
        if self.noise is not None:
            post = _measured(post, self.noise, self.meas_filter)
        self.post = BlockMap(*post)
        self.state = np.zeros(len(self.post.Ad))
        self.t = 0.0

    @property
    def x(self):
        """The modal state."""
        return self.state[:self._nx]

    @x.setter
    def x(self, value):
        self.state[:self._nx] = value

    def step(self, u_cmd):
        """Advance one plant step with the command held constant."""
        out = self.advance(u_cmd, 1)
        return PlantOutput(y_true=out.y_true[0], y_raw=out.y_raw[0], y_filt=out.y_filt[0],
                           alpha_g=out.alpha_g[0], u_eff=out.u_eff[0])

    def advance(self, u_cmd, n):
        """Advance n plant steps with the command held; one output row per step."""
        ns, m = len(self.state), self.actuators.m
        U = self._next_inputs(n, n)
        u_eff = self.actuators.advance(u_cmd, n, out=U[:, :m])
        r = self.post.tick(n) @ np.concatenate([self.state, U.ravel()])
        if not np.isfinite(r[:ns]).all():
            raise NonFiniteState("plant block produced non-finite state")
        self.state = r[:ns]
        Y = r[ns:].reshape(n, -1)
        if self.noise is None:
            y_true, y_raw, y_filt = Y, Y.copy(), Y.copy()
        else:
            y_true, y_raw, y_filt = Y[:, :2], Y[:, 2:4], Y[:, 4:]
        return PlantOutput(y_true=y_true, y_raw=y_raw, y_filt=y_filt,
                           alpha_g=U[:, m], u_eff=u_eff)

    def closed_loop(self, n, k):
        """n plant steps as k-step ticks, each holding the command tick(u_cmd) is given.

        Returns (fields, tick): the run log's plant fields (_run_log), which
        fill in as tick runs, u_eff and the gust angle at the end of each
        chunk.  The row after the last tick holds the final state.

        A tick writes the bank's u_eff straight into its row of the input
        buffer, whose gust angles and white noise _next_inputs fills about
        GUST_CHUNK steps at a time.  One product with the rows of
        post.tick(n) that the log keeps, in their order, writes the next log
        row (46 of the 102 rows of a 15-step tick for the default twin with
        noise).  Each row comes out bit for bit as in the full product:
        OpenBLAS's gemv on x86-64 rounds a row alike wherever it sits except
        among the last (rows mod 4), and both products end on the same rows.
        A last tick of r < k steps puts its last y_raw and y_filt after its
        r y_true rows.
        """
        log, fields = self._run_log(n, k)
        (p, nv), ns, m, ticks = self.post.Dd.shape, len(self.state), self.actuators.m, len(log) - 1
        kept = {r: self.post.tick(r)[np.r_[np.arange(ns), ns + _log_rows(r, p)]]
                for r in {k, n - (ticks - 1) * k}}
        chunk = max(1, round(GUST_CHUNK / k))
        xu = np.empty((chunk, ns + k * nv))
        U = xu[:, ns:].reshape(chunk, k, nv)
        # views built once: each input row's u_eff rows, state and whole row, and the
        # log's states and the rows a k-step tick writes
        slots = [(U[j, :, :m], xu[j, :ns], xu[j]) for j in range(chunk)]
        states, outs, full = log[:, :ns], log[:, :ns + 2 * k + p - 2], n // k
        t = 0

        def tick(u_cmd):
            nonlocal t
            j = t % chunk
            if j == 0:
                steps = min(chunk * k, n - t * k)
                xu[:, ns:] = self._next_inputs(steps, chunk * k).reshape(chunk, -1)
            (u_eff, x, z), r, out = slots[j], k, outs[t + 1]
            if t == full:   # a last tick of r < k steps
                r = n - t * k
                u_eff, z, out = u_eff[:r], z[:ns + r * nv], out[:ns + 2 * r + p - 2]
            self.actuators.advance(u_cmd, r, out=u_eff)
            x[...] = states[t]
            np.dot(kept[r], z, out=out)
            t += 1
            if np.count_nonzero(np.isfinite(states[t])) < ns:
                raise NonFiniteState("plant block produced non-finite state")
            if t % chunk == 0 or t == ticks:
                # the chunk's last u_eff and gust angle of each tick, before a refill
                log[t - j:t + 1, -1 - m:] = U[:j + 1, k - 1, :m + 1]
            if t == ticks:
                self.state = states[t].copy()

        return fields, tick

    def coast(self, n, k):
        """n plant steps from rest with a zero command, as k-step blocks (ticks).

        Returns the run log's plant fields (_run_log) as closed_loop fills
        them under a zero command.  From rest the actuator bank then outputs
        one constant row, its backlash rest point times the fault scales,
        taken from one advance(0, 1).  The post-backlash map runs as lifted
        block products (BlockMap.lifted) a chunk of about GUST_CHUNK steps
        at a time, evaluating only the log's output rows.  Each chunk
        commits its block-start states, and each block's outputs and last
        gust angle, read off the chunk's input rows from _next_inputs, into
        the row after it.
        """
        log, fields = self._run_log(n, k)
        u_eff = self.actuators.advance(np.zeros(self.actuators.m), 1)[0]
        ns, m, rows = len(self.state), len(u_eff), _log_rows(k, len(self.post.Dd))
        chunk = max(1, round(GUST_CHUNK / k))
        for b in range(0, len(log) - 1, chunk):
            steps = min(chunk * k, n - b * k)
            U = self._next_inputs(steps, steps)
            U[:, :m] = u_eff
            S, Y, state = self.post.lifted(self.state, U, k, rows)
            if not (np.isfinite(S).all() and np.isfinite(state).all()):
                raise NonFiniteState("plant block produced non-finite state")
            self.state = state
            log[b:b + len(S), :ns] = S
            log[b + 1:b + 1 + len(S), ns:ns + len(rows)] = Y
            log[b + 1:b + 1 + steps // k, -1] = U[k - 1:steps:k, m]
        fields["u_eff"][1:] = u_eff
        return fields

    def _run_log(self, n, k):
        """The run log of n plant steps as k-step ticks, and its plant fields.

        One row per tick start and one after the last tick: the state, the
        outputs of the tick before it that _log_rows picks (y_true at every
        step, the last y_raw and y_filt), then that tick's last u_eff and gust
        angle; row 0 holds the current state.  Returns (log, fields): fields
        are views of one row per tick start under RunLog's names: x (the
        modal state), y_true, y_raw, y_filt (y_true without noise), alpha_g,
        u_eff, and y_true_plant, one (k, 2) block per tick.  That view is
        strided, so a reshape to one row per step copies: flatten it once filled.
        """
        p, ns, m, ticks = len(self.post.Dd), len(self.state), self.actuators.m, -(-n // k)
        last, tail = ns + 2 * k, ns + 2 * k + p - 2
        log = np.zeros((ticks + 1, tail + m + 1))
        log[0, :ns] = self.state
        head = log[:ticks]
        y_true = head[:, last - 2:last]
        y_raw, y_filt = (head[:, last:last + 2], head[:, last + 2:tail]) if p > 2 else (y_true,) * 2
        return log, dict(x=head[:, :self._nx], y_true=y_true, y_raw=y_raw, y_filt=y_filt,
                         alpha_g=head[:, -1], u_eff=head[:, tail:tail + m],
                         y_true_plant=log[1:, ns:last].reshape(ticks, k, 2))

    def _next_inputs(self, steps, rows):
        """Inputs of the next `steps` plant steps, one row per step, and zero
        rows up to `rows`: the gust angle at each step's start and, with
        noise, the white noise in step order; u_eff is left zero.  The start
        times are np.cumsum([t, dt, ..., dt]), a sequential running sum, so
        bit for bit t += dt however the steps are split; t moves on to the
        sum's last value."""
        m = self.actuators.m
        times = np.cumsum(np.concatenate([[self.t], np.full(steps, self.dt)]))
        self.t = times[-1]
        U = np.zeros((rows, self.post.Bd.shape[1]))
        if self.gust is not None:
            U[:steps, m] = gust_angle(self.gust, times[:-1])
        if self.noise is not None:
            U[:steps, m + 1:] = self.noise.rng.standard_normal((steps, U.shape[1] - m - 1))
        return U


def _log_rows(k, p):
    """Of the k p output rows of a k-step block, y_true of every step and the
    other outputs of the last step."""
    return np.r_[np.arange(2 * k) + np.arange(k).repeat(2) * (p - 2), (k - 1) * p + np.arange(2, p)]


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
    Cs, Ds = noise.gain * Cs, noise.gain * Ds
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
