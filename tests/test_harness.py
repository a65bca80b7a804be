"""Scenario configuration, run protocol, metrics, and CSV logging tests."""

from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morphwing.errors import ConfigError
from morphwing.harness import (
    RunLog,
    ScenarioConfig,
    _simulate,
    build_controller,
    build_limits,
    build_model,
    build_simulator,
    certify_run,
    compare_controllers,
    compute_metrics,
    csv_header,
    emit_csv,
    frequency_sweep,
    gla_config,
    mla_config,
    parse_csv,
    reference_fn,
    run_scenario,
)
from morphwing.shapes import build_basis


def short_cfg(controller="indi-qp-v", duration=1.5, **kw):
    cfg = ScenarioConfig(controller=controller, duration=duration)
    for k, v in kw.items():
        setattr(cfg, k, v)
    return cfg


def empty_log(q=5, m=12):
    z = lambda *shape: np.zeros(shape)
    return RunLog(controller="open-loop", q=q, t=z(0), u=z(0, m), u_v=z(0, q),
                  y_raw=z(0, 2), y_filt=z(0, 2), y_true=z(0, 2), y_ref=z(0, 2),
                  alpha_g=z(0), eps_ca_norm=z(0), iterations=z(0), sat_flags=z(0),
                  nu_c=z(0, 2), eps_ca=z(0, 2), hedge=z(0, 2), e_log=z(0, 2),
                  x=z(0, 4), u_eff=z(0, m), t_plant=z(0), y_true_plant=z(0, 2),
                  y_ref_plant=z(0, 2))


class TestConfig:
    def test_yaml_round_trip_is_identity(self):
        cfg = gla_config(1.5)
        cfg.noise.enabled = True
        assert ScenarioConfig.from_yaml(cfg.to_yaml()) == cfg

    def test_empty_yaml_gives_defaults(self):
        assert ScenarioConfig.from_yaml("") == ScenarioConfig()

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ConfigError):
            ScenarioConfig.from_dict({"controler": "lqg"})

    def test_unknown_nested_key_rejected(self):
        with pytest.raises(ConfigError):
            ScenarioConfig.from_dict({"gust": {"amplitude": 3.0}})

    def test_unknown_controller_rejected(self):
        with pytest.raises(ConfigError):
            ScenarioConfig(controller="pid")

    def test_tick_must_be_multiple_of_plant_step(self):
        with pytest.raises(ConfigError):
            ScenarioConfig(dt_ctrl=0.0157)

    def test_numeric_string_read_as_float(self):
        # YAML 1.1 reads 1e9 (no dot) as a string
        cfg = ScenarioConfig.from_yaml("noise: {std: 1e9}\nduration: '2'\n")
        assert cfg.noise.std == 1e9 and cfg.duration == 2.0

    @pytest.mark.parametrize("data, field", [
        ({"dt_plant": 0}, "dt_plant"),
        ({"dt_ctrl": float("inf")}, "dt_ctrl"),
        ({"noise": {"std": [1.0]}}, "noise.std"),
        ({"noise": {"enabled": "on"}}, "noise.enabled"),
        ({"q": 0}, "q"),
        ({"q": 2.0}, "q"),
    ])
    def test_bad_scalar_value_named(self, data, field):
        with pytest.raises(ConfigError, match=field):
            ScenarioConfig.from_dict(data)

    def test_lag_model_follows_actuator_config(self):
        cfg = ScenarioConfig.from_yaml("actuators: {omega: 20, delay: 0.03}")
        model = build_model(cfg)
        basis = build_basis(model.locations, cfg.plant.half_span, cfg.q)
        ctrl = build_controller(cfg, model, basis, build_limits(cfg))
        servo = ctrl.lag.filters[0]
        assert (servo.zeta, servo.omega) == (cfg.actuators.zeta, 20.0)
        assert ctrl.lag.delay_ticks == 2

    def test_lqg_delay_need_not_be_whole_ticks(self):
        # only the INDI lag model delays by whole ticks; the plant by whole plant steps
        cfg = ScenarioConfig.from_yaml("controller: lqg\nactuators: {delay: 0.022}")
        assert cfg.actuators.delay == 0.022
        with pytest.raises(ConfigError, match="actuators.delay"):
            replace(cfg, controller="indi-qp-v")

    def test_presets_are_valid(self):
        assert mla_config("fy+30%").gust.enabled is False
        assert mla_config("fy+35%").command.profile == "fy+35%"
        assert gla_config(0.5).command.profile == "none"


class TestReference:
    def test_none_profile_is_zero(self):
        ref = reference_fn(short_cfg(command=replace(ScenarioConfig().command,
                                                     profile="none")))
        assert np.array_equal(ref(10.0), [0.0, 0.0])

    def test_custom_sigmoid_levels(self):
        cfg = ScenarioConfig()
        ref = reference_fn(cfg)
        c = cfg.command
        assert np.allclose(ref(c.t_start), [c.level / 2.0, 0.0])
        assert np.allclose(ref(c.t_start + 60.0), [c.level, 0.0], atol=1e-6)

    def test_shear_step_profile_final_values(self):
        cfg = mla_config("fy+30%")
        ref = reference_fn(cfg)
        c = cfg.command
        assert np.allclose(ref(1e3), [1.3 * c.f_nom, c.m_nom], atol=1e-6)

    @pytest.mark.filterwarnings("error")
    def test_time_array_matches_scalar_calls_without_overflow(self):
        # a steep sigmoid reaches exp(1200) at t = 0, which overflowed
        cfg = mla_config("fy+35%")
        cfg.command.rate = 200.0
        ref = reference_fn(cfg)
        t = np.arange(12000) * 1e-3
        assert np.array_equal(ref(t), np.array([ref(ti) for ti in t]))
        assert ref(t).shape == (12000, 2) and ref(20.0).shape == (2,)


class TestMetrics:
    def _fake(self, err):
        n = len(err)
        return SimpleNamespace(controller="x",
                               y_true_plant=np.asarray(err, dtype=float),
                               y_ref_plant=np.zeros((n, 2)),
                               eps_ca_norm=np.zeros(n),
                               iterations=np.zeros(n, dtype=int),
                               sat_flags=np.zeros(n, dtype=int))

    def test_rms_reduction_arithmetic(self):
        closed = self._fake([[2.5, 1.0], [-2.5, -1.0]])
        open_ = self._fake([[10.0, 2.0], [-10.0, -2.0]])
        rep = compute_metrics(closed, open_)
        assert rep.red_rms_fy == pytest.approx(75.0)
        assert rep.red_max_fy == pytest.approx(75.0)
        assert rep.red_rms_mx == pytest.approx(50.0)

    def test_self_comparison_is_exactly_zero(self):
        log = self._fake([[1.0, 2.0], [3.0, 4.0]])
        rep = compute_metrics(log, log)
        assert np.array_equal(rep.reductions(), np.zeros(4))

    def test_undefined_reduction_is_nan(self):
        # no gust and no command: the paired open-loop error is identically zero
        cfg = short_cfg(duration=0.5)
        cfg.gust.enabled = False
        cfg.command.profile = "none"
        _, rep = run_scenario(cfg)
        assert rep.open_max_fy == rep.open_rms_mx == 0.0
        assert np.all(np.isnan(rep.reductions()))

    def test_open_loop_scenario_pairs_with_itself(self):
        _, rep = run_scenario(short_cfg("open-loop", duration=0.5))
        assert np.array_equal(rep.reductions(), np.zeros(4))


class TestRunProtocol:
    def test_log_shapes_are_consistent(self):
        cfg = short_cfg(duration=0.6)
        log, rep = run_scenario(cfg)
        n = log.t.size
        # 600 plant steps at a 15-step tick stride
        assert n == 40
        assert log.u.shape == (n, 12)
        assert log.u_v.shape == (n, 5)
        assert log.t_plant.size == int(round(0.6 / cfg.dt_plant))
        assert np.all(np.isfinite(log.u))
        assert rep.controller == "indi-qp-v"

    def test_commands_respect_position_limits(self):
        log, _ = run_scenario(short_cfg(duration=1.0))
        assert np.all(np.abs(log.u) <= 30.0 + 1e-9)

    def test_noisy_runs_reproduce_bit_for_bit(self, tmp_path):
        def once(path):
            cfg = short_cfg(duration=1.0)
            cfg.noise.enabled = True
            log, _ = run_scenario(cfg, pair_open_loop=False)
            emit_csv(log, path)
            return path.read_bytes()

        assert once(tmp_path / "a.csv") == once(tmp_path / "b.csv")

    def test_compare_controllers_shares_open_loop(self):
        cfg = short_cfg(duration=0.6)
        reports = compare_controllers(cfg, ("indi-qp-v", "open-loop"))
        assert np.array_equal(reports["open-loop"].reductions(), np.zeros(4))
        assert set(reports) == {"indi-qp-v", "open-loop"}

    def test_frequency_sweep_row_per_frequency(self):
        rows = frequency_sweep(gla_config(), [3.0])
        assert len(rows) == 1
        f, rep = rows[0]
        assert f == 3.0
        assert np.all(np.isfinite(rep.reductions()))

    def test_certificates_require_incremental_controller(self):
        cfg = short_cfg("lqg", duration=0.5)
        log, _ = run_scenario(cfg, pair_open_loop=False)
        with pytest.raises(ConfigError):
            certify_run(log, cfg)


def per_tick_open_loop(cfg):
    """The open-loop RunLog fields as a tick loop fills them: sim.advance(zeros,
    stride) one tick at a time, each tick's row holding the modal state at its
    start and the outputs of the step before it (zero before the first)."""
    model = build_model(cfg)
    sim = build_simulator(cfg, model)
    stride = int(round(cfg.dt_ctrl / cfg.dt_plant))
    n = int(round(cfg.duration / cfg.dt_plant))
    ticks = -(-n // stride)
    x, held, y_true_plant = np.zeros((ticks, model.A.shape[0])), np.zeros((ticks, 19)), []
    for tick in range(ticks):
        x[tick] = sim.x
        out = sim.advance(np.zeros(12), min(stride, n - tick * stride))
        y_true_plant.append(out.y_true)
        if tick + 1 < ticks:
            held[tick + 1] = np.concatenate([out.y_true[-1], out.y_raw[-1], out.y_filt[-1],
                                             out.alpha_g[-1:], out.u_eff[-1]])
    t_plant = np.arange(n) * cfg.dt_plant
    y_ref_plant = reference_fn(cfg)(t_plant)
    return dict(t=t_plant[::stride], t_plant=t_plant, y_ref=y_ref_plant[::stride],
                y_ref_plant=y_ref_plant, u=np.zeros((ticks, 12)), u_v=np.zeros((ticks, cfg.q)),
                alpha_g=held[:, 6], u_eff=held[:, 7:], y_true=held[:, :2], y_raw=held[:, 2:4],
                y_filt=held[:, 4:6], x=x, y_true_plant=np.vstack(y_true_plant))


def open_loop_cfg(duration=2.01, **sections):
    return ScenarioConfig.from_dict({"controller": "open-loop", "duration": duration,
                                     "gust": {"d_gw": 0.3, "f_g": 2.0}, **sections})


HARSH = {"noise": {"enabled": True}, "fault": {"enabled": True}, "actuators": {"backlash": True}}


@pytest.mark.parametrize("cfg", [
    open_loop_cfg(),
    open_loop_cfg(noise={"enabled": True}),
    open_loop_cfg(**HARSH),
    open_loop_cfg(**{**HARSH, "actuators": {"backlash": True, "u_f_plus": -0.2}}),
    open_loop_cfg(actuators={"instant": True}, fault={"enabled": True}),
    open_loop_cfg(duration=2.007, noise={"enabled": True}),
    open_loop_cfg(duration=0.007, gust={"d_gw": 0.0, "f_g": 2.0}, noise={"enabled": True}),
    open_loop_cfg(duration=1.2, dt_ctrl=0.001, noise={"enabled": True}),
], ids=["clean", "noise", "harsh", "backlash-rest-point", "instant", "partial-last-tick",
        "shorter-than-a-tick", "tick-is-one-plant-step"])
def test_open_loop_run_matches_per_tick_advance(cfg):
    # the lifted open-loop run: time, gust, references and commands bit for
    # bit, loads and modal states within 1e-11 of their peak
    log, want = _simulate(cfg), per_tick_open_loop(cfg)
    for name in ("t", "t_plant", "alpha_g", "y_ref", "y_ref_plant", "u", "u_v", "u_eff"):
        assert getattr(log, name).dtype == want[name].dtype, name
        assert np.array_equal(getattr(log, name), want[name]), name
    loads = ("y_true", "y_raw", "y_filt", "y_true_plant")
    peak = max(np.abs(want[name]).max() for name in loads)
    for name in loads:
        assert getattr(log, name).shape == want[name].shape, name
        assert np.abs(getattr(log, name) - want[name]).max() <= 1e-11 * peak, name
    assert np.abs(log.x - want["x"]).max() <= 1e-11 * np.abs(want["x"]).max()
    for name in ("eps_ca_norm", "iterations", "sat_flags", "nu_c", "eps_ca", "hedge", "e_log"):
        assert not getattr(log, name).any(), name
    if cfg.actuators.backlash and cfg.actuators.u_f_plus < 0.0:
        # the backlash rest point k2 * -u_f_plus, times the fault scales
        assert np.allclose(log.u_eff[1:], 0.2 * build_simulator(cfg, build_model(cfg))
                           .actuators.scales)


class TestCsv:
    def test_header_layout(self):
        cols = csv_header(5, 12)
        assert cols[0] == "t"
        assert cols[1] == "u_1" and cols[12] == "u_12"
        assert cols[13] == "u_v_1" and cols[17] == "u_v_5"
        assert cols[-1] == "sat_flags"

    def test_empty_log_writes_header_only(self, tmp_path):
        path = emit_csv(empty_log(), tmp_path / "empty.csv")
        text = path.read_text()
        assert text == ",".join(csv_header(5, 12)) + "\n"

    def test_row_count_matches_ticks(self, tmp_path):
        log, _ = run_scenario(short_cfg(duration=0.03), pair_open_loop=False)
        path = emit_csv(log, tmp_path / "two.csv")
        lines = path.read_text().strip().split("\n")
        assert len(lines) == 1 + log.t.size == 3

    def test_parse_round_trip_is_exact(self, tmp_path):
        cfg = short_cfg(duration=0.5)
        cfg.noise.enabled = True
        log, _ = run_scenario(cfg, pair_open_loop=False)
        cols = parse_csv(emit_csv(log, tmp_path / "r.csv"))
        assert np.array_equal(cols["t"], log.t)
        assert np.array_equal(cols["u_7"], log.u[:, 6])
        assert np.array_equal(cols["u_v_3"], log.u_v[:, 2])
        assert np.array_equal(cols["F_y_filt"], log.y_filt[:, 0])
        assert np.array_equal(cols["M_x_raw"], log.y_raw[:, 1])
        assert np.array_equal(cols["eps_ca_norm"], log.eps_ca_norm)

    def test_rows_match_per_value_repr(self, tmp_path):
        # the row-at-a-time writer against one repr per value, column by column
        cfg = short_cfg(duration=0.5)
        cfg.noise.enabled = True
        log, _ = run_scenario(cfg, pair_open_loop=False)
        columns = ([log.t] + list(log.u.T) + list(log.u_v.T)
                   + [log.y_raw[:, 0], log.y_filt[:, 0], log.y_raw[:, 1], log.y_filt[:, 1],
                      log.y_ref[:, 0], log.y_ref[:, 1], log.alpha_g, log.eps_ca_norm])
        rows = [",".join([repr(float(c[i])) for c in columns]
                         + [str(int(log.iterations[i])), str(int(log.sat_flags[i]))])
                for i in range(log.t.size)]
        expected = "\n".join([",".join(csv_header(log.q))] + rows) + "\n"
        assert emit_csv(log, tmp_path / "r.csv").read_text() == expected


@given(gust=st.booleans(), a_g=st.floats(0.5, 8.0), f_g=st.floats(0.3, 5.0),
       level=st.sampled_from([-1500.0, -800.0, 0.0, 400.0, 1500.0]), noise=st.booleans(),
       std=st.floats(0.1, 5.0), seed=st.integers(0, 2 ** 16), fault=st.booleans(),
       backlash=st.booleans())
@settings(max_examples=25, deadline=None, derandomize=True)
def test_indi_commands_meet_limits(gust, a_g, f_g, level, noise, std, seed, fault, backlash):
    """Short gust/fault/noise/backlash runs; the command levels drive most
    of them into the position and rate limits."""
    cfg = ScenarioConfig.from_dict({
        "duration": 1.5,
        "gust": {"enabled": gust, "a_g": a_g, "f_g": f_g, "d_gw": 0.1},
        "command": {"level": level, "t_start": 0.3, "rate": 8.0},
        "noise": {"enabled": noise, "std": std, "seed": seed},
        "fault": {"enabled": fault},
        "actuators": {"backlash": backlash},
    })
    log, _ = run_scenario(cfg, pair_open_loop=False)
    lim, u = cfg.limits, log.u
    du = np.diff(u, axis=0, prepend=np.zeros((1, u.shape[1])))
    adj = np.where(np.arange(u.shape[1] - 1) % 2 == 0, lim.adj_even, lim.adj_odd)
    assert np.abs(u).max() <= lim.position + 1e-9
    assert np.abs(du).max() <= lim.rate * cfg.dt_ctrl + 1e-9
    assert (np.abs(np.diff(u, axis=1)) - adj).max() <= 1e-9
