"""Command-line interface and exit-code tests."""

import pytest
from click.testing import CliRunner

from morphwing import harness
from morphwing.cli import main
from morphwing.harness import ScenarioConfig


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
], ids=["unknown-key", "duration-not-a-number", "duration-negative", "noise-std-not-a-number",
        "q-above-servo-count", "duration-under-one-plant-step", "servo-count-not-twelve",
        "lag-filter-too-fast-for-tick", "servo-filter-too-fast-for-tick", "gust-frequency-zero",
        "gust-speed-zero", "servo-damping-zero", "noise-damping-negative", "delay-negative",
        "delay-not-whole-plant-steps", "delay-not-whole-controller-ticks", "sigma-above-one",
        "sigma-zero", "k-gain-zero", "k-gain-negative", "position-limit-zero",
        "rate-limit-negative", "adj-even-limit-infinite", "adj-odd-limit-nan",
        "q-one-loses-row-rank-for-qp-v", "q-one-under-two-integral-states-for-lqg"])
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


def test_compare_writes_table(tmp_path):
    cfg_path = write_cfg(tmp_path / "s.yaml")
    result = CliRunner().invoke(
        main, ["compare", cfg_path, "--controllers", "indi-qp-v,open-loop",
               "--out", str(tmp_path)])
    assert result.exit_code == 0, result.output
    text = (tmp_path / "compare.csv").read_text()
    assert text.startswith("controller,")
    assert "indi-qp-v" in text


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
