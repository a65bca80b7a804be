"""Scenario orchestration: maneuver/gust runs, metrics, sweeps, CSV.

A ScenarioConfig fully determines a run: twin parameters, actuator
imperfections, gust, noise, command profile, and controller settings.
Reduction-rate metrics are always computed against a paired open-loop
run with identical seed, gust, fault, and backlash settings, so the
percentages isolate the controller's contribution.
"""

import math
from dataclasses import asdict, dataclass, field, fields, is_dataclass, replace

import numpy as np
import yaml

from .constraints import InputLimits
from .errors import ConfigError
from .indi import IndiController, certify_bounds, default_lag_model, recursion_terms
from .lqg import LqgController, design_kalman, design_lqr, perturb_model
from .numerics import pseudo_inverse
from .plant import (
    DEFAULT_LOCATIONS,
    MEAS_OMEGA,
    SERVO_OMEGA,
    SERVO_ZETA,
    ActuatorBank,
    GustProfile,
    NoiseModel,
    PlantOutput,
    WingSimulator,
    apply_fault,
    synthesize_wing_model,
)
from .shapes import build_basis

CONTROLLERS = ("indi-pi", "indi-qp", "indi-qp-v", "lqg", "open-loop")
COMMAND_PROFILES = ("none", "fy+30%", "fy+35%", "custom")


_KINDS = {float: "a number", int: "an integer", bool: "true or false"}


def _scalar(key, ftype, value):
    """value checked against a scalar field's type; numeric strings become floats."""
    if ftype is float and type(value) in (int, float, str):
        try:
            return float(value)
        except ValueError:
            pass
    elif ftype not in _KINDS or type(value) is ftype:
        return value
    raise ConfigError(f"{key} must be {_KINDS[ftype]}, got {value!r}")


def _numbers(name, value, size, low=-math.inf):
    """A list field as size floats in (low, inf); numeric strings become floats."""
    out = [_scalar(name, float, v) for v in value] if isinstance(value, (list, tuple)) else []
    if len(out) != size or not all(low < v < math.inf for v in out):
        raise ConfigError(f"{name} must be a list of {size} numbers in ({low}, inf), got {value!r}")
    return out


def _from_dict(cls, data, prefix=""):
    """Build a config dataclass from a mapping, rejecting unknown keys and
    scalar values of the wrong type."""
    if not isinstance(data, dict):
        raise ConfigError(f"{cls.__name__} section must be a mapping, got {type(data).__name__}")
    known = {f.name: f.type for f in fields(cls)}
    unknown = set(data) - set(known)
    if unknown:
        raise ConfigError(f"unknown {cls.__name__} keys: {sorted(unknown)}")
    kwargs = {}
    for name, value in data.items():
        ftype = known[name]
        if is_dataclass(ftype):
            kwargs[name] = _from_dict(ftype, value, f"{prefix}{name}.")
        else:
            kwargs[name] = _scalar(prefix + name, ftype, value)
    return cls(**kwargs)


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
class LimitsConfig:
    position: float = 30.0
    rate: float = 80.0
    adj_even: float = 55.0
    adj_odd: float = 10.0


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
class NoiseConfig:
    enabled: bool = False
    std: float = 1.0
    seed: int = 100
    zeta: float = 0.7
    omega: float = 30.0


@dataclass
class FaultConfig:
    enabled: bool = False
    failed: list = field(default_factory=lambda: [8])
    scaled: list = field(default_factory=lambda: [[7, 0.468], [9, 0.7348]])


@dataclass
class CommandConfig:
    """Sigmoid command profile.

    "fy+30%"/"fy+35%" first ramp the loads to the nominal operating
    point (f_nom, m_nom), then step the shear reference up by the named
    fraction while holding the moment reference.  "custom" is a single
    sigmoid of the given level, used by the gust-plus-maneuver runs.
    """

    profile: str = "custom"
    f_nom: float = 480.0
    m_nom: float = 408.0
    level: float = 168.0
    m_level: float = 0.0
    t_start: float = 6.0
    rate: float = 0.7
    base_time: float = 3.0
    base_rate: float = 2.0


@dataclass
class IndiConfig:
    k_gain: float = 0.1
    sigma: float = 1e-3


@dataclass
class LqgConfig:
    perturb_rel: float = 0.2
    perturb_seed: int = 13
    q_int_weight: float = 10.0
    r_weight: float = 260.0
    q_k: float = 0.05
    r_k: float = 0.0       # 0 = use the configured noise variance
    n_k: list = field(default_factory=lambda: [0.0, 0.0])


@dataclass
class ScenarioConfig:
    controller: str = "indi-qp-v"
    duration: float = 25.0
    dt_plant: float = 0.001
    dt_ctrl: float = 0.015
    q: int = 5
    plant: PlantConfig = field(default_factory=PlantConfig)
    limits: LimitsConfig = field(default_factory=LimitsConfig)
    actuators: ActuatorConfig = field(default_factory=ActuatorConfig)
    gust: GustConfig = field(default_factory=GustConfig)
    noise: NoiseConfig = field(default_factory=NoiseConfig)
    fault: FaultConfig = field(default_factory=FaultConfig)
    command: CommandConfig = field(default_factory=CommandConfig)
    indi: IndiConfig = field(default_factory=IndiConfig)
    lqg: LqgConfig = field(default_factory=LqgConfig)

    def __post_init__(self):
        if self.controller not in CONTROLLERS:
            raise ConfigError(f"controller must be one of {CONTROLLERS}, got {self.controller!r}")
        if self.command.profile not in COMMAND_PROFILES:
            raise ConfigError(
                f"command profile must be one of {COMMAND_PROFILES}, got {self.command.profile!r}")
        positive = {"duration": self.duration, "dt_plant": self.dt_plant,
                    "dt_ctrl": self.dt_ctrl, "gust.f_g": self.gust.f_g, "gust.v": self.gust.v,
                    "actuators.zeta": self.actuators.zeta, "indi.k_gain": self.indi.k_gain,
                    "plant.dc_split": self.plant.dc_split, "plant.mode_damp": self.plant.mode_damp,
                    "plant.half_span": self.plant.half_span, "plant.n_modes": self.plant.n_modes,
                    **{f"limits.{k}": v for k, v in asdict(self.limits).items()}}
        if self.noise.enabled:
            positive["noise.zeta"] = self.noise.zeta
        for name, value in positive.items():
            if not 0.0 < value < math.inf:
                raise ConfigError(f"{name} must be positive and finite, got {value!r}")
        if round(self.duration / self.dt_plant) < 1:
            raise ConfigError(
                f"duration must cover one plant step of {self.dt_plant}, got {self.duration}")
        if self.plant.m != DEFAULT_LOCATIONS.size:
            raise ConfigError(
                f"plant.m must be {DEFAULT_LOCATIONS.size}, the fixed servo count, got {self.plant.m}")
        for section, values in asdict(self).items():
            for key, value in values.items() if isinstance(values, dict) else ():
                if type(value) is float and not math.isfinite(value):
                    raise ConfigError(f"{section}.{key} must be finite, got {value!r}")
        plant = self.plant
        plant.gust_dc = _numbers("plant.gust_dc", plant.gust_dc, 2)
        plant.mode_freqs = _numbers("plant.mode_freqs", plant.mode_freqs, plant.n_modes, low=0.0)
        # RK4 must not grow a mode: |R(h lambda)| <= 1, and R's stable set lies in |z| < 2.96
        hl = self.dt_plant * np.concatenate([np.roots([1.0, 2.0 * plant.mode_damp * w, w * w])
                                             for w in 2.0 * np.pi * np.array(plant.mode_freqs)])
        hl = np.where(np.abs(hl) < 3.0, hl, 3.0)
        if np.abs(1.0 + hl * (1.0 + hl / 2.0 * (1.0 + hl / 3.0 * (1.0 + hl / 4.0)))).max() > 1.0:
            raise ConfigError(f"plant modes are too fast for the RK4 step dt_plant {self.dt_plant}")
        self.lqg.n_k = _numbers("lqg.n_k", self.lqg.n_k, 2)
        if self.noise.seed < 0 or self.lqg.perturb_seed < 0:
            raise ConfigError(f"seeds must be non-negative, got noise.seed {self.noise.seed}, "
                              f"lqg.perturb_seed {self.lqg.perturb_seed}")
        if not all(isinstance(v, (list, tuple)) for v in (self.fault.failed, self.fault.scaled)):
            raise ConfigError("fault.failed and fault.scaled must be lists")
        for pair in self.fault.scaled:
            _numbers("each fault.scaled entry", pair, 2)
        servos = list(self.fault.failed) + [pair[0] for pair in self.fault.scaled]
        if not all(type(i) is int and 0 <= i < plant.m for i in servos):
            raise ConfigError(f"fault servo indices must be integers in 0..{plant.m - 1}, "
                              f"got failed {self.fault.failed!r}, scaled {self.fault.scaled!r}")
        if not 0.0 < self.indi.sigma < 1.0:
            raise ConfigError(f"indi.sigma must be in (0, 1), got {self.indi.sigma!r}")
        # indi-qp-v's B_eff Phi keeps both load rows; lqg's q shape inputs drive two integral states
        q_min = 2 if self.controller in ("indi-qp-v", "lqg") else 1
        if not q_min <= self.q <= self.plant.m:
            raise ConfigError(f"q must be in {q_min}..{self.plant.m} for {self.controller}, "
                              f"got {self.q}")
        stride = self.dt_ctrl / self.dt_plant
        if round(stride) < 1 or abs(stride - round(stride)) > 1e-9:
            raise ConfigError("dt_ctrl must be an integer multiple of dt_plant")
        depth = self.actuators.delay / self.dt_plant
        if not 0.0 <= depth < math.inf or abs(depth - round(depth)) > 1e-9:
            raise ConfigError("actuators.delay must be a non-negative integer multiple of "
                              f"dt_plant, got {self.actuators.delay!r}")
        # the INDI lag model delays by whole controller ticks
        ticks = self.actuators.delay / self.dt_ctrl
        if self.controller.startswith("indi") and abs(ticks - round(ticks)) > 1e-9:
            raise ConfigError("actuators.delay must be a whole number of dt_ctrl for "
                              f"{self.controller}, got {self.actuators.delay!r}")
        # omega*dt < 1 for every second-order section the run builds, at the
        # slowest rate it runs: the INDI lag model runs copies of the servo
        # filter and, with noise on, of the measurement filter at dt_ctrl
        servo_dt = "dt_ctrl" if self.controller.startswith("indi") else "dt_plant"
        meas_dt = servo_dt if self.noise.enabled else "dt_plant"
        sections = [("actuators.omega", self.actuators.omega, servo_dt),
                    ("measurement filter omega", MEAS_OMEGA, meas_dt)]
        if self.noise.enabled:
            sections.append(("noise.omega", self.noise.omega, "dt_plant"))
        for name, omega, dt in sections:
            if not 0.0 < omega * getattr(self, dt) < 1.0:
                raise ConfigError(
                    f"{name} * {dt} must be in (0, 1), got {omega} * {getattr(self, dt)}")

    def to_dict(self):
        return asdict(self)

    @classmethod
    def from_dict(cls, data):
        return _from_dict(cls, data)

    def to_yaml(self):
        return yaml.safe_dump(self.to_dict(), sort_keys=False)

    @classmethod
    def from_yaml(cls, text):
        try:
            data = yaml.safe_load(text)
        except yaml.YAMLError as exc:
            raise ConfigError(f"config is not valid YAML: {' '.join(str(exc).split())}") from exc
        if data is None:
            data = {}
        return cls.from_dict(data)


def mla_config(step="fy+30%"):
    """Maneuver-only scenario: nominal loads, then a shear step."""
    cfg = ScenarioConfig()
    cfg.command = CommandConfig(profile=step, t_start=10.0, rate=2.0)
    cfg.gust = GustConfig(enabled=False)
    cfg.duration = 20.0
    return cfg


def gla_config(f_g=0.5):
    """Gust-only scenario used by the frequency sweep."""
    cfg = ScenarioConfig()
    cfg.command = CommandConfig(profile="none")
    cfg.gust = GustConfig(enabled=True, a_g=3.5, f_g=f_g, d_gw=2.0, repeat=10)
    cfg.duration = 12.0
    return cfg


def _sigmoid(x):
    """1 / (1 + exp(-x)), written as z / (1 + z) with z = exp(x) for x < 0 so
    that exp never overflows."""
    z = np.exp(-np.abs(x))
    return np.where(x >= 0.0, 1.0 / (1.0 + z), z / (1.0 + z))


def reference_fn(cfg):
    """Load-reference trajectory (F_y*, M_x*) as a function of time.

    The returned function takes a time or an array of times and returns
    the references along a last axis of length 2.
    """
    c = cfg.command
    if c.profile == "none":
        return lambda t: np.zeros(np.shape(t) + (2,))
    if c.profile == "custom":
        def ref(t):
            s = _sigmoid(c.rate * (np.asarray(t, dtype=float) - c.t_start))
            return np.stack([c.level * s, c.m_level * s], axis=-1)
        return ref
    frac = 0.30 if c.profile == "fy+30%" else 0.35

    def ref(t):
        t = np.asarray(t, dtype=float)
        base = _sigmoid(c.base_rate * (t - c.base_time))
        step = _sigmoid(c.rate * (t - c.t_start))
        return np.stack([c.f_nom * base + frac * c.f_nom * step, c.m_nom * base], axis=-1)
    return ref


def build_limits(cfg):
    m = cfg.plant.m
    lc = cfg.limits
    u_adj = np.array([lc.adj_even if i % 2 == 0 else lc.adj_odd for i in range(m - 1)])
    return InputLimits(
        u_min=-lc.position * np.ones(m), u_max=lc.position * np.ones(m),
        rate_min=-lc.rate * np.ones(m), rate_max=lc.rate * np.ones(m),
        u_adj=u_adj, dt=cfg.dt_ctrl,
    )


def build_model(cfg):
    p = cfg.plant
    return synthesize_wing_model(
        m=p.m, n_modes=p.n_modes, half_span=p.half_span, fy_gain=p.fy_gain,
        gust_dc=tuple(p.gust_dc), mode_freqs=np.asarray(p.mode_freqs, dtype=float),
        mode_damp=np.full(p.n_modes, p.mode_damp), dc_split=p.dc_split,
    )


def build_simulator(cfg, model):
    a = cfg.actuators
    bank = ActuatorBank(
        cfg.plant.m, dt=cfg.dt_plant, zeta=a.zeta, omega=a.omega, delay_s=a.delay,
        backlash_on=a.backlash, k1=a.k1, k2=a.k2,
        u_f_plus=a.u_f_plus, u_f_minus=a.u_f_minus, instant=a.instant,
    )
    if cfg.fault.enabled:
        apply_fault(bank, failed=tuple(cfg.fault.failed),
                    scaled=tuple((i, s) for i, s in cfg.fault.scaled))
    noise = None
    if cfg.noise.enabled:
        noise = NoiseModel(cfg.noise.std * np.ones(2), dt=cfg.dt_plant,
                           seed=cfg.noise.seed, zeta=cfg.noise.zeta, omega=cfg.noise.omega)
    gust = None
    if cfg.gust.enabled:
        g = cfg.gust
        gust = GustProfile(A_g=g.a_g, f_g=g.f_g, phi=g.phi, d_gw=g.d_gw, V=g.v,
                           repeat=g.repeat)
    return WingSimulator(model, actuators=bank, noise=noise, gust=gust, dt=cfg.dt_plant)


def build_controller(cfg, model, basis, limits):
    name = cfg.controller
    if name == "open-loop":
        return None
    if name.startswith("indi"):
        mode = {"indi-pi": "pi", "indi-qp": "qp", "indi-qp-v": "qp-v"}[name]
        a = cfg.actuators
        lag = default_lag_model(cfg.dt_ctrl, a.zeta, a.omega, round(a.delay / cfg.dt_ctrl),
                                with_measurement_filter=cfg.noise.enabled)
        K = np.diag([cfg.indi.k_gain, cfg.indi.k_gain])
        return IndiController(model.B_static, K, limits, cfg.dt_ctrl, mode=mode,
                              basis=basis, sigma=cfg.indi.sigma, lag_model=lag)
    lc = cfg.lqg
    dm = perturb_model(model, rel=lc.perturb_rel, seed=lc.perturb_seed)
    lqr = design_lqr(dm, basis.Phi, q_int_weight=lc.q_int_weight, r_weight=lc.r_weight)
    kalman = None
    if cfg.noise.enabled:
        r_var = lc.r_k if lc.r_k > 0.0 else cfg.noise.std ** 2
        kalman = design_kalman(dm, lc.q_k, r_var * np.eye(2),
                               np.asarray(lc.n_k, dtype=float))
    return LqgController(lqr, dm, basis.Phi, limits, cfg.dt_ctrl, kalman=kalman)


@dataclass
class RunLog:
    """Tick-rate and plant-rate time series of one scenario run."""

    controller: str
    q: int
    t: np.ndarray
    u: np.ndarray
    u_v: np.ndarray
    y_raw: np.ndarray
    y_filt: np.ndarray
    y_true: np.ndarray
    y_ref: np.ndarray
    alpha_g: np.ndarray
    eps_ca_norm: np.ndarray
    iterations: np.ndarray
    sat_flags: np.ndarray
    nu_c: np.ndarray
    eps_ca: np.ndarray
    hedge: np.ndarray
    e_log: np.ndarray
    x: np.ndarray
    u_eff: np.ndarray
    t_plant: np.ndarray
    y_true_plant: np.ndarray
    y_ref_plant: np.ndarray


def run_scenario(cfg, pair_open_loop=True):
    """Simulate one scenario; returns (RunLog, MetricsReport).

    The report's reduction rates are against an automatically paired
    open-loop run (itself, when the scenario already is open loop, so
    the reductions are exactly zero).
    """
    log = _simulate(cfg)
    if not pair_open_loop:
        return log, None
    if cfg.controller == "open-loop":
        open_log = log
    else:
        open_log = _simulate(replace(cfg, controller="open-loop"))
    return log, compute_metrics(log, open_log)


def _simulate(cfg):
    """Build and run one scenario; every run's RunLog, open loop included.

    A closed-loop run steps the controller and then the plant one tick at
    a time.  An open-loop run has no controller and a zero command, so the
    plant computes it as lifted block products (WingSimulator.coast) and
    the log takes its rows from that.
    """
    model = build_model(cfg)
    basis = build_basis(model.locations, cfg.plant.half_span, cfg.q)
    limits = build_limits(cfg)
    sim = build_simulator(cfg, model)
    ctrl = build_controller(cfg, model, basis, limits)
    ref = reference_fn(cfg)

    stride = int(round(cfg.dt_ctrl / cfg.dt_plant))
    n_plant = int(round(cfg.duration / cfg.dt_plant))
    m, q = cfg.plant.m, cfg.q
    n_ticks = (n_plant + stride - 1) // stride

    U = np.zeros((n_ticks, m))
    UV = np.zeros((n_ticks, q))
    EpsN = np.zeros(n_ticks)
    Iters = np.zeros(n_ticks, dtype=int)
    Sat = np.zeros(n_ticks, dtype=int)
    Nu = np.zeros((n_ticks, 2))
    Eps = np.zeros((n_ticks, 2))
    Hedge = np.zeros((n_ticks, 2))
    Elog = np.zeros((n_ticks, 2))

    t_plant = np.arange(n_plant) * cfg.dt_plant
    Yrp = ref(t_plant)

    if ctrl is None:
        # zero command throughout: lifted block products, one block per tick
        X, Ytp, held = sim.coast(n_plant, stride)
        Yraw, Yfilt, Ytrue, Alpha, Ueff = (held.y_raw, held.y_filt, held.y_true, held.alpha_g,
                                           held.u_eff)
    else:
        Yraw = np.zeros((n_ticks, 2))
        Yfilt = np.zeros((n_ticks, 2))
        Ytrue = np.zeros((n_ticks, 2))
        Alpha = np.zeros(n_ticks)
        X = np.zeros((n_ticks, model.A.shape[0]))
        Ueff = np.zeros((n_ticks, m))
        Ytp = np.zeros((n_plant, 2))
        # the plant's outputs over the last tick, one row per plant step
        zero = np.zeros((1, 2))
        out = PlantOutput(y_true=zero, y_raw=zero, y_filt=zero, alpha_g=np.zeros(1),
                          u_eff=np.zeros((1, m)))
        is_indi = cfg.controller.startswith("indi")
        for tick in range(n_ticks):
            k0 = tick * stride
            k1 = min(k0 + stride, n_plant)
            y_ref = Yrp[k0]
            if is_indi:
                u = ctrl.step(out.y_filt[-1], y_ref)
                last = ctrl.last
                Nu[tick] = last["nu_c"]
                Eps[tick] = last["eps_ca"]
                Hedge[tick] = last["hedge"]
                Elog[tick] = last["e"]
                EpsN[tick] = np.linalg.norm(last["eps_ca"])
                Iters[tick] = last["iterations"]
                Sat[tick] = int(len(last["active_set"]) > 0)
                dv = last["delta_u_virtual"]
                if dv is not None:
                    # accumulate: the servo command is Phi times this total
                    UV[tick] = (UV[tick - 1] if tick > 0 else 0.0) + dv
            else:
                u = ctrl.step(out.y_raw[-1], y_ref, x_true=sim.x)
                UV[tick] = ctrl.last["u_v"][:q]
                Sat[tick] = int(ctrl.last["saturated"])
            U[tick] = u
            Yraw[tick] = out.y_raw[-1]
            Yfilt[tick] = out.y_filt[-1]
            Ytrue[tick] = out.y_true[-1]
            Alpha[tick] = out.alpha_g[-1]
            X[tick] = sim.x
            Ueff[tick] = out.u_eff[-1]
            out = sim.advance(u, k1 - k0)
            Ytp[k0:k1] = out.y_true
    return RunLog(
        controller=cfg.controller, q=q, t=t_plant[::stride].copy(), u=U, u_v=UV, y_raw=Yraw,
        y_filt=Yfilt, y_true=Ytrue, y_ref=Yrp[::stride].copy(), alpha_g=Alpha, eps_ca_norm=EpsN,
        iterations=Iters, sat_flags=Sat, nu_c=Nu, eps_ca=Eps, hedge=Hedge, e_log=Elog, x=X,
        u_eff=Ueff, t_plant=t_plant, y_true_plant=Ytp, y_ref_plant=Yrp,
    )


@dataclass
class MetricsReport:
    """Per-channel load-error metrics and reductions vs paired open loop."""

    controller: str
    max_fy: float
    rms_fy: float
    max_mx: float
    rms_mx: float
    open_max_fy: float
    open_rms_fy: float
    open_max_mx: float
    open_rms_mx: float
    red_max_fy: float
    red_rms_fy: float
    red_max_mx: float
    red_rms_mx: float
    eps_ca_max: float
    iter_max: int
    saturation_count: int

    def reductions(self):
        return np.array([self.red_max_fy, self.red_rms_fy, self.red_max_mx, self.red_rms_mx])


def _channel_metrics(log):
    err = log.y_true_plant - log.y_ref_plant
    return np.abs(err).max(axis=0), np.sqrt((err ** 2).mean(axis=0))


def compute_metrics(log, open_log):
    """Reduction rate = (open - closed)/open per channel metric, in %.

    A run compared with itself reduces nothing (exactly 0).  Against
    another run, a reduction of a zero open-loop metric is undefined (NaN).
    """
    mx, rms = _channel_metrics(log)
    omx, orms = _channel_metrics(open_log)
    undefined = 0.0 if log is open_log else math.nan
    red = lambda o, c: 100.0 * (o - c) / o if o > 0.0 else undefined
    return MetricsReport(
        controller=log.controller,
        max_fy=float(mx[0]), rms_fy=float(rms[0]), max_mx=float(mx[1]), rms_mx=float(rms[1]),
        open_max_fy=float(omx[0]), open_rms_fy=float(orms[0]),
        open_max_mx=float(omx[1]), open_rms_mx=float(orms[1]),
        red_max_fy=red(omx[0], mx[0]), red_rms_fy=red(orms[0], rms[0]),
        red_max_mx=red(omx[1], mx[1]), red_rms_mx=red(orms[1], rms[1]),
        eps_ca_max=float(np.max(log.eps_ca_norm)) if log.eps_ca_norm.size else 0.0,
        iter_max=int(np.max(log.iterations)) if log.iterations.size else 0,
        saturation_count=int(np.sum(log.sat_flags)),
    )


def compare_controllers(cfg, controllers=("indi-qp-v", "lqg")):
    """Run several controllers against one shared open-loop reference run."""
    open_log = _simulate(replace(cfg, controller="open-loop"))
    reports = {}
    for name in controllers:
        if name == "open-loop":
            reports[name] = compute_metrics(open_log, open_log)
            continue
        log = _simulate(replace(cfg, controller=name))
        reports[name] = compute_metrics(log, open_log)
    return reports


def frequency_sweep(cfg, freqs):
    """Gust-frequency sweep at fixed gains; one paired run per frequency.

    Each run lasts exactly the gust window plus a short settle margin,
    so the error metrics compare the same number of gust periods at
    every frequency instead of diluting fast gusts with quiet tail.
    """
    rows = []
    for f in freqs:
        gust = replace(cfg.gust, f_g=float(f), enabled=True)
        duration = gust.d_gw / gust.v + gust.repeat / gust.f_g + 1.0
        c = replace(cfg, gust=gust, duration=duration)
        _, report = run_scenario(c)
        rows.append((float(f), report))
    return rows


def certify_run(log, cfg):
    """Evaluate the boundedness certificates on a finished run.

    The tick-scale true effectiveness is the feedthrough of the twin
    composed with any actuator fault scaling; the controller's model is
    the healthy static effectiveness.  On linear runs (backlash off) the
    recursion residual is also reconstructed independently from the
    logged modal states, which checks the certificate recursion as an
    identity rather than a bound.
    """
    if not cfg.controller.startswith("indi"):
        raise ConfigError("certificates apply to the incremental controller only")
    model = build_model(cfg)
    B_model = model.B_static
    B_true = model.D @ np.diag(build_simulator(cfg, model).actuators.scales)
    K = np.diag([cfg.indi.k_gain, cfg.indi.k_gain])
    cert = certify_bounds(K, B_true, B_model, log.nu_c, log.eps_ca, log.y_true, log.e_log)
    if not cfg.actuators.backlash and not cfg.fault.enabled and not cfg.noise.enabled:
        cert.max_identity_residual = _identity_residual(log, model, B_model)
    return cert


def _identity_residual(log, model, B_model):
    """Max gap between the logged recursion residual and its closed form.

    On a linear healthy run the residual is exactly the modal-state load
    increment plus the effectiveness-weighted actuator-lag discrepancy:
    r(k) = C dx(k) + K_B (B (u_eff increment - commanded increment) - hedge(k)).
    """
    K_B = model.D @ pseudo_inverse(B_model)
    _, _, residual = recursion_terms(log.nu_c, log.eps_ca, log.y_true, model.D, B_model)
    C = model.C
    dx = np.diff(log.x, axis=0)                     # dx[k] = x(k+1) - x(k)
    du_eff = np.diff(log.u_eff, axis=0)
    du_cmd = np.diff(log.u, axis=0, prepend=np.zeros((1, log.u.shape[1])))
    # residual[i] corresponds to r(k) at tick k = i + 1
    n = residual.shape[0]
    ks = np.arange(1, n + 1)
    pred = (dx[ks] @ C.T
            + (du_eff[ks] - du_cmd[ks]) @ B_model.T @ K_B.T
            - log.hedge[ks] @ K_B.T)
    return float(np.max(np.abs(residual - pred))) if n else 0.0


CSV_FIXED_TAIL = ["F_y_raw", "F_y_filt", "M_x_raw", "M_x_filt", "F_y_star",
                  "M_x_star", "alpha_g", "eps_ca_norm", "iters", "sat_flags"]


def csv_header(q, m=12):
    cols = ["t"]
    cols += [f"u_{i + 1}" for i in range(m)]
    cols += [f"u_v_{i + 1}" for i in range(q)]
    cols += CSV_FIXED_TAIL
    return cols


def emit_csv(log, path):
    """Write the tick-rate log with full-precision decimal values.

    The float formatting is the shortest round-trip representation, so
    parsing the file reproduces the in-memory arrays bit for bit and
    repeated runs of the same config produce byte-identical files.
    """
    cols = csv_header(log.q, log.u.shape[1])
    floats = np.column_stack([log.t, log.u, log.u_v, log.y_raw[:, 0], log.y_filt[:, 0],
                              log.y_raw[:, 1], log.y_filt[:, 1], log.y_ref, log.alpha_g,
                              log.eps_ca_norm])
    lines = [",".join(cols)]
    for row, iters, sat in zip(floats, log.iterations.tolist(), log.sat_flags.tolist()):
        lines.append(",".join([*map(repr, row.tolist()), str(int(iters)), str(int(sat))]))
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


def parse_csv(path):
    """Read an emitted CSV back into a dict of numpy columns."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        data = [line.strip().split(",") for line in fh if line.strip()]
    arr = np.array(data, dtype=float) if data else np.zeros((0, len(header)))
    return {name: arr[:, j] for j, name in enumerate(header)}
