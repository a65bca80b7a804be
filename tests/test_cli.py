"""Command-line interface and exit-code tests."""

import tempfile
from dataclasses import fields, is_dataclass
from pathlib import Path

import numpy as np
import pytest
import yaml
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from morphwing import harness
from morphwing.cli import main
from morphwing.harness import ScenarioConfig
from morphwing.indi import IndiController


def write_cfg(path, cfg=None):
    cfg = cfg or ScenarioConfig(duration=0.5)
    path.write_text(cfg.to_yaml())
    return str(path)


def test_run_writes_csv_and_exits_zero(tmp_path):
    cfg_path = write_cfg(tmp_path / "s.yaml")
    result = CliRunner().invoke(main, ["run", cfg_path, "--out", str(tmp_path)])
    assert result.exit_code == 0, result.output
    assert (tmp_path / "run_indi-qp-v.csv").exists()
    assert "reduction" in result.output


@pytest.mark.parametrize("body, field", [
    ("controler: lqg\n", "controler"),
    ("duration: abc\n", "duration"),
    ("duration: -1\n", "duration"),
    ("noise: {enabled: true, std: abc}\n", "noise.std"),
    ("q: 13\n", "q must"),
    ("duration: 0.0001\n", "duration"),
    ("{plant: {m: 3}, q: 3}\n", "plant.m"),
    ("dt_ctrl: 0.1\n", "dt_ctrl"),
    ("actuators: {omega: 600}\n", "actuators.omega"),
    ("gust: {f_g: 0}\n", "gust.f_g"),
    ("gust: {v: 0}\n", "gust.v"),
    ("actuators: {zeta: 0}\n", "actuators.zeta"),
    ("noise: {enabled: true, zeta: -1}\n", "noise.zeta"),
    ("actuators: {delay: -0.01}\n", "actuators.delay"),
    ("actuators: {delay: 0.0155}\n", "actuators.delay"),
    ("actuators: {delay: 0.022}\n", "actuators.delay"),
    ("indi: {sigma: 2.0}\n", "indi.sigma"),
    ("indi: {sigma: 0}\n", "indi.sigma"),
    ("indi: {k_gain: 0}\n", "indi.k_gain"),
    ("indi: {k_gain: -0.1}\n", "indi.k_gain"),
    ("limits: {position: 0}\n", "limits.position"),
    ("limits: {rate: -80}\n", "limits.rate"),
    ("limits: {adj_even: .inf}\n", "limits.adj_even"),
    ("limits: {adj_odd: .nan}\n", "limits.adj_odd"),
    ("q: 1\n", "q must"),
    ("{controller: lqg, q: 1}\n", "q"),
    ("fault: {enabled: true, failed: [99]}\n", "fault servo indices"),
    ("fault: {enabled: true, scaled: [[1]]}\n", "fault.scaled"),
    ("fault: {scaled: 3}\n", "fault.scaled"),
    ("plant: {gust_dc: [1.0]}\n", "plant.gust_dc"),
    ("plant: {gust_dc: 5}\n", "plant.gust_dc"),
    ("plant: {mode_freqs: [5.0]}\n", "plant.mode_freqs"),
    ("plant: {n_modes: 0}\n", "plant.n_modes"),
    ("plant: {fy_gain: .nan}\n", "plant.fy_gain"),
    ("plant: {dc_split: 0}\n", "plant.dc_split"),
    ("plant: {half_span: 0}\n", "plant.half_span"),
    ("plant: {mode_damp: 211}\n", "RK4"),
    ("noise: {enabled: true, seed: -1}\n", "noise.seed"),
    ("lqg: {n_k: [0.0]}\n", "lqg.n_k"),
    ("noise: {enabled: true, std: -1}\n", "noise.std"),
    ("{controller: lqg, lqg: {r_weight: 0}}\n", "lqg.r_weight"),
    ("{controller: lqg, lqg: {q_int_weight: -1}}\n", "lqg.q_int_weight"),
    ("{controller: lqg, noise: {enabled: true}, lqg: {q_k: -1}}\n", "lqg.q_k"),
    ("{controller: lqg, noise: {enabled: true}, lqg: {r_k: -1}}\n", "lqg.r_k"),
    ("{controller: lqg, noise: {enabled: true, std: 0}}\n", "lqg.r_k"),
], ids=["unknown-key", "duration-not-a-number", "duration-negative", "noise-std-not-a-number",
        "q-above-servo-count", "duration-under-one-plant-step", "servo-count-not-twelve",
        "lag-filter-too-fast-for-tick", "servo-filter-too-fast-for-tick", "gust-frequency-zero",
        "gust-speed-zero", "servo-damping-zero", "noise-damping-negative", "delay-negative",
        "delay-not-whole-plant-steps", "delay-not-whole-controller-ticks", "sigma-above-one",
        "sigma-zero", "k-gain-zero", "k-gain-negative", "position-limit-zero",
        "rate-limit-negative", "adj-even-limit-infinite", "adj-odd-limit-nan",
        "q-one-loses-row-rank-for-qp-v", "q-one-under-two-integral-states-for-lqg",
        "fault-servo-out-of-range", "fault-scaled-entry-not-a-pair", "fault-scaled-not-a-list",
        "gust-dc-one-entry", "gust-dc-not-a-list", "mode-freqs-shorter-than-n-modes",
        "no-modes", "fy-gain-nan", "dc-split-zero", "half-span-zero",
        "mode-too-stiff-for-rk4", "noise-seed-negative", "n-k-one-entry", "noise-std-negative",
        "lqg-r-weight-zero", "lqg-q-int-weight-negative", "lqg-q-k-negative",
        "lqg-r-k-negative", "lqg-zero-measurement-variance"])
def test_bad_config_key_exits_one(tmp_path, body, field):
    path = tmp_path / "bad.yaml"
    path.write_text(body)
    result = CliRunner().invoke(main, ["run", str(path)])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    lines = result.output.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("config error:"), result.output
    assert field in lines[0]


def test_missing_config_exits_three(tmp_path):
    result = CliRunner().invoke(main, ["run", str(tmp_path / "nope.yaml")])
    assert result.exit_code == 3


def test_design_failure_exits_two(tmp_path):
    cfg = ScenarioConfig(controller="lqg", duration=0.5)
    cfg.noise.enabled = True
    # cross covariance far above the process covariance: the filter
    # design must refuse, which the CLI maps to the divergence code
    cfg.lqg.q_k = 1e-9
    cfg.lqg.r_k = 1e-6
    cfg.lqg.n_k = [1.0, 1.0]
    cfg_path = write_cfg(tmp_path / "diverge.yaml", cfg)
    result = CliRunner().invoke(main, ["run", cfg_path])
    assert result.exit_code == 2


@pytest.mark.parametrize("body", ["plant: {dc_split: 2.2e-309}\n", "plant: {fy_gain: -2.1e200}\n",
                                  "{controller: lqg, noise: {enabled: true, std: 1e200}}\n"],
                         ids=["invalid-value-in-plant-map", "overflow-in-compiled-qp",
                              "overflow-in-noise-variance"])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_floating_point_error_exits_two_with_one_line(tmp_path, body):
    # numpy's invalid-value and overflow warnings end the run as a divergence,
    # with no warning line before the message
    path = tmp_path / "absurd.yaml"
    path.write_text(body)
    result = CliRunner().invoke(main, ["run", str(path), "--out", str(tmp_path)])
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    lines = result.output.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("runtime divergence:"), result.output


@pytest.mark.parametrize("repeat", [0, -3])
@pytest.mark.parametrize("command", ["run", "sweep"])
def test_gust_repeat_under_one_exits_one_naming_it(tmp_path, command, repeat):
    # an enabled gust of no periods used to run with no gust and print nan%, and
    # sweep blamed the duration it derives; a disabled gust's repeat is unused, so
    # it loads and runs, but sweep enables the gust and then refuses it
    msg = f"config error: gust.repeat must be at least 1 when the gust is enabled, got {repeat}"
    for enabled, run_code in (("true", 1), ("false", 0)):
        path = tmp_path / "s.yaml"
        path.write_text(f"duration: 0.5\ngust: {{enabled: {enabled}, repeat: {repeat}}}\n")
        result = CliRunner().invoke(main, [command, str(path), "--out", str(tmp_path)])
        assert result.exit_code == (run_code if command == "run" else 1), result.output
        if result.exit_code:
            assert isinstance(result.exception, SystemExit)
            assert result.output.strip().splitlines() == [msg]
    assert ScenarioConfig.from_dict({"gust": {"enabled": False, "repeat": repeat}}).gust.repeat \
        == repeat


@pytest.mark.parametrize("args, field", [
    (["sweep", "--freqs", "0"], "gust.f_g"),
    (["sweep", "--freqs=-1"], "gust.f_g"),
    (["sweep", "--freqs", ","], "--freqs"),
    (["sweep", "--freqs", ""], "--freqs"),
    (["compare", "--controllers", ","], "--controllers"),
], ids=["sweep-zero-frequency", "sweep-negative-frequency", "sweep-no-frequency",
        "sweep-empty-frequency-list", "compare-no-controller"])
def test_bad_list_option_exits_one(tmp_path, args, field):
    # a frequency is checked as gust.f_g before the sweep derives its duration
    cfg_path = write_cfg(tmp_path / "s.yaml")
    result = CliRunner().invoke(main, [args[0], cfg_path, *args[1:], "--out", str(tmp_path)])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    lines = result.output.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("config error:"), result.output
    assert field in lines[0]


def test_bad_controller_name_exits_one_before_any_run(tmp_path, monkeypatch):
    # every controller name is checked before the shared open-loop run
    calls = []
    simulate = harness._simulate
    monkeypatch.setattr(harness, "_simulate", lambda cfg: calls.append(cfg) or simulate(cfg))
    cfg_path = write_cfg(tmp_path / "s.yaml")
    result = CliRunner().invoke(main, ["compare", cfg_path, "--controllers", "indi-qp-v,foo",
                                       "--out", str(tmp_path)])
    assert result.exit_code == 1
    lines = result.output.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("config error: controller must be one of")
    assert "'foo'" in lines[0]
    assert calls == []


def test_non_finite_plant_state_exits_two_with_one_line(tmp_path, monkeypatch):
    # a NaN command makes the closed-loop plant state non-finite on its tick
    calls, step = [], IndiController.step

    def nan_on_tick_5(ctrl, y_meas, y_ref):
        u = step(ctrl, y_meas, y_ref)
        calls.append(None)
        return np.full_like(u, np.nan) if len(calls) == 6 else u

    monkeypatch.setattr(IndiController, "step", nan_on_tick_5)
    cfg_path = write_cfg(tmp_path / "s.yaml")
    result = CliRunner().invoke(main, ["run", cfg_path, "--out", str(tmp_path)])
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    lines = result.output.strip().splitlines()
    assert lines == ["runtime divergence: plant block produced non-finite state"], result.output


def test_compare_writes_table(tmp_path):
    cfg_path = write_cfg(tmp_path / "s.yaml")
    result = CliRunner().invoke(
        main, ["compare", cfg_path, "--controllers", "indi-qp-v,open-loop",
               "--out", str(tmp_path)])
    assert result.exit_code == 0, result.output
    text = (tmp_path / "compare.csv").read_text()
    assert text.startswith("controller,")
    assert "indi-qp-v" in text


def test_sweep_writes_table(tmp_path):
    # a header, then one line of four reductions per frequency, in the order given
    cfg_path = write_cfg(tmp_path / "s.yaml")
    result = CliRunner().invoke(
        main, ["sweep", cfg_path, "--freqs", "0.5,1.5,3", "--out", str(tmp_path)])
    assert result.exit_code == 0, result.output
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert lines[0] == "f_g,red_max_fy,red_rms_fy,red_max_mx,red_rms_mx"
    assert [line.split(",")[0] for line in lines[1:]] == ["0.5", "1.5", "3.0"]
    assert all(np.isfinite([float(v) for v in line.split(",")]).all() and line.count(",") == 4
               for line in lines[1:])


def test_certify_reports_bounds(tmp_path):
    cfg_path = write_cfg(tmp_path / "s.yaml", ScenarioConfig(duration=2.0))
    result = CliRunner().invoke(main, ["certify", cfg_path])
    assert result.exit_code == 0, result.output
    assert "b_bar" in result.output
    assert "identity residual" in result.output


def test_certify_simulates_once(tmp_path, monkeypatch):
    # the certificate needs only the closed-loop log, not its open-loop pair
    calls = []
    simulate = harness._simulate
    monkeypatch.setattr(harness, "_simulate", lambda cfg: calls.append(cfg) or simulate(cfg))
    cfg_path = write_cfg(tmp_path / "s.yaml", ScenarioConfig(duration=0.5))
    result = CliRunner().invoke(main, ["certify", cfg_path])
    assert result.exit_code == 0, result.output
    assert len(calls) == 1


def test_certify_refuses_other_controllers_before_simulating(tmp_path, monkeypatch):
    # the certificates are the incremental controller's: an lqg config exits 1 unsimulated
    calls = []

    def simulate(cfg):
        calls.append(cfg)
        raise AssertionError("simulated")
    monkeypatch.setattr(harness, "_simulate", simulate)
    cfg_path = write_cfg(tmp_path / "s.yaml", ScenarioConfig(controller="lqg", duration=0.5))
    result = CliRunner().invoke(main, ["certify", cfg_path])
    assert result.exit_code == 1
    assert result.output.strip().splitlines() == [
        "config error: certificates apply to the incremental controller only"]
    assert calls == []


def test_seed_override_changes_noisy_run(tmp_path):
    cfg = ScenarioConfig(duration=0.5)
    cfg.noise.enabled = True
    cfg_path = write_cfg(tmp_path / "s.yaml", cfg)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    CliRunner().invoke(main, ["run", cfg_path, "--out", str(out1), "--seed", "1"])
    CliRunner().invoke(main, ["run", cfg_path, "--out", str(out2), "--seed", "2"])
    a = (out1 / "run_indi-qp-v.csv").read_bytes()
    b = (out2 / "run_indi-qp-v.csv").read_bytes()
    assert a != b


# Values for any config key, mostly numbers: in and out of range, non-finite,
# of the wrong type, or lists of the wrong length or contents.  The keys that
# size the run (its duration, steps, delay and mode count) draw from short
# lists instead, which keep a run to about 0.2 s and its maps small.
NUMBER = st.one_of(st.integers(-3, 20), st.floats(-100.0, 100.0),
                   st.floats(allow_nan=True, allow_infinity=True))
WILD = st.one_of(
    NUMBER, NUMBER, st.booleans(), st.none(), st.text(max_size=4),
    st.lists(st.one_of(st.integers(-2, 14), st.floats(-50.0, 50.0)), max_size=3),
    st.lists(st.lists(st.one_of(st.integers(-2, 14), st.floats(-2.0, 2.0)), max_size=3),
             max_size=3))
SIZED = {
    ("duration",): st.sampled_from([0.2, 0.2, 0.1, 0.0, -0.2, float("nan"), "long"]),
    ("dt_plant",): st.sampled_from([0.001, 0.0005, 0.003, 0.0, -0.001]),
    ("dt_ctrl",): st.sampled_from([0.015, 0.03, 0.0075, 0.001, 0.0]),
    ("actuators", "delay"): st.sampled_from([0.0, 0.015, 0.03, 0.022, -0.01, 0.0155]),
    ("plant", "n_modes"): st.sampled_from([1, 2, 3, 0, -1]),
}
KEYS = [(f.name, g.name) if is_dataclass(f.type) else (f.name,)
        for f in fields(ScenarioConfig) for g in (fields(f.type) if is_dataclass(f.type) else [f])]


@st.composite
def scenario_yaml(draw):
    data = {"duration": draw(SIZED[("duration",)])}
    for key in draw(st.lists(st.sampled_from(KEYS + [("bogus",), ("plant", "bogus")]),
                             max_size=4)):
        value = draw(SIZED.get(key, WILD))
        if len(key) == 1:
            data[key[0]] = value
        elif isinstance(data.setdefault(key[0], {}), dict):
            data[key[0]][key[1]] = value
    if draw(st.booleans()):
        data["controller"] = draw(st.sampled_from(harness.CONTROLLERS))
    tail = draw(st.sampled_from([""] * 7 + ["]", "noise: [1\n", "- 1\n"]))
    return yaml.safe_dump(data) + tail


@pytest.mark.filterwarnings("error::RuntimeWarning")
@given(text=scenario_yaml())
@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
def test_random_config_exits_with_one_line(text):
    # any YAML through `morphwing run`: exit 0, or 1/2/3 with one line, never a traceback
    with tempfile.TemporaryDirectory() as out:
        path = Path(out) / "fuzz.yaml"
        path.write_text(text)
        result = CliRunner().invoke(main, ["run", str(path), "--out", out])
    assert result.exit_code in (0, 1, 2, 3), (text, result.output)
    assert result.exception is None or isinstance(result.exception, SystemExit), (
        text, repr(result.exception))
    if result.exit_code:
        lines = result.output.strip().splitlines()
        assert len(lines) == 1, (text, result.output)
        assert lines[0].split(":")[0] in ("config error", "runtime divergence", "runtime error",
                                          "i/o error"), (text, lines[0])
