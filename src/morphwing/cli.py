"""Command-line front end for scenario runs, sweeps, and comparisons.

Exit codes: 0 success, 1 bad config, 2 runtime divergence, 3 I/O error.
"""

import sys
from dataclasses import replace
from pathlib import Path

import click
import numpy as np

from .errors import ConfigError, MorphwingError, NonFiniteState, NoStabilizingSolution
from .harness import (
    ScenarioConfig,
    certify_run,
    compare_controllers,
    compute_metrics,
    emit_csv,
    frequency_sweep,
    run_scenario,
)

_METRIC_NAMES = ("red_max_fy", "red_rms_fy", "red_max_mx", "red_rms_mx")


def _load_config(path, seed=None):
    """Read the scenario file; run it under _guard so errors map to exit codes."""
    cfg = ScenarioConfig.from_yaml(Path(path).read_text())
    if seed is not None:
        cfg = replace(cfg, noise=replace(cfg.noise, seed=int(seed)))
    return cfg


def _guard(fn):
    """Run fn, mapping failure classes to the documented exit codes.

    A numpy overflow, invalid value or division by zero raises instead of
    warning, so it ends the run as a divergence with one line on stderr.
    """
    try:
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            return fn()
    except ConfigError as exc:
        click.echo(f"config error: {exc}", err=True)
        sys.exit(1)
    except (NonFiniteState, NoStabilizingSolution, np.linalg.LinAlgError,
            FloatingPointError) as exc:
        click.echo(f"runtime divergence: {exc}", err=True)
        sys.exit(2)
    except MorphwingError as exc:
        click.echo(f"runtime error: {exc}", err=True)
        sys.exit(2)
    except OSError as exc:
        click.echo(f"i/o error: {exc}", err=True)
        sys.exit(3)


def _entries(option, text):
    """The comma-separated entries of a list option; an empty list exits 1."""
    entries = [s.strip() for s in text.split(",") if s.strip()]
    if not entries:
        click.echo(f"config error: {option} lists nothing, got {text!r}", err=True)
        sys.exit(1)
    return entries


def _print_report(report):
    click.echo(f"controller: {report.controller}")
    click.echo(f"  max|Fy err| {report.max_fy:.4f}  (open {report.open_max_fy:.4f}, "
               f"reduction {report.red_max_fy:.2f}%)")
    click.echo(f"  rms Fy err  {report.rms_fy:.4f}  (open {report.open_rms_fy:.4f}, "
               f"reduction {report.red_rms_fy:.2f}%)")
    click.echo(f"  max|Mx err| {report.max_mx:.4f}  (open {report.open_max_mx:.4f}, "
               f"reduction {report.red_max_mx:.2f}%)")
    click.echo(f"  rms Mx err  {report.rms_mx:.4f}  (open {report.open_rms_mx:.4f}, "
               f"reduction {report.red_rms_mx:.2f}%)")
    click.echo(f"  eps_ca max {report.eps_ca_max:.3e}  iterations max {report.iter_max}  "
               f"saturated ticks {report.saturation_count}")


def _write_table(out, name, key, rows):
    """Write out/name: a header of key and the metric names, then a line per
    (key value, report) in rows with the report's metrics at full precision."""
    path = Path(out) / name
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [",".join((key, *_METRIC_NAMES))]
    lines += [",".join((k, *(repr(float(getattr(rep, n))) for n in _METRIC_NAMES)))
              for k, rep in rows]
    path.write_text("\n".join(lines) + "\n")
    click.echo(f"table: {path}")


@click.group()
def main():
    """Morphing-wing load-alleviation scenario toolkit."""


@main.command()
@click.argument("config", type=click.Path())
@click.option("--out", default=".", type=click.Path(), help="Output directory for the run CSV.")
@click.option("--seed", default=None, type=int, help="Override the measurement-noise seed.")
def run(config, out, seed):
    """Run one scenario and write its tick-rate log as CSV."""
    cfg = _guard(lambda: _load_config(config, seed))

    def go():
        log, report = run_scenario(cfg)
        out_dir = Path(out)
        out_dir.mkdir(parents=True, exist_ok=True)
        path = out_dir / f"run_{cfg.controller}.csv"
        emit_csv(log, path)
        _print_report(report)
        click.echo(f"log: {path}")
    _guard(go)


@main.command()
@click.argument("config", type=click.Path())
@click.option("--freqs", default="0.5,1.5,3.0,4.5",
              help="Comma-separated gust frequencies in Hz.")
@click.option("--out", default=".", type=click.Path())
@click.option("--seed", default=None, type=int)
def sweep(config, freqs, out, seed):
    """Gust-frequency sweep; writes a summary table CSV."""
    cfg = _guard(lambda: _load_config(config, seed))
    try:
        freq_list = [float(f) for f in _entries("--freqs", freqs)]
    except ValueError:
        click.echo(f"config error: bad --freqs list {freqs!r}", err=True)
        sys.exit(1)

    def go():
        rows = frequency_sweep(cfg, freq_list)
        for f, rep in rows:
            click.echo(f"f_g={f:g} Hz: " + "  ".join(
                f"{n.split('red_')[1]}={getattr(rep, n):.2f}%" for n in _METRIC_NAMES))
        _write_table(out, "sweep.csv", "f_g", [(repr(f), rep) for f, rep in rows])
    _guard(go)


@main.command()
@click.argument("config", type=click.Path())
@click.option("--controllers", default="indi-qp-v,lqg",
              help="Comma-separated controller names.")
@click.option("--out", default=".", type=click.Path())
@click.option("--seed", default=None, type=int)
def compare(config, controllers, out, seed):
    """Run several controllers against one paired open-loop run."""
    cfg = _guard(lambda: _load_config(config, seed))
    names = _entries("--controllers", controllers)

    def go():
        reports = compare_controllers(cfg, names)
        for name in names:
            _print_report(reports[name])
        _write_table(out, "compare.csv", "controller", [(name, reports[name]) for name in names])
    _guard(go)


@main.command()
@click.argument("config", type=click.Path())
@click.option("--seed", default=None, type=int)
def certify(config, seed):
    """Check the controller, run a scenario and evaluate its boundedness certificates."""
    cfg = _guard(lambda: _load_config(config, seed))

    def go():
        cert = certify_run(None, cfg)
        click.echo(f"b_bar            {cert.b_bar:.6f}")
        click.echo(f"mu1              {cert.mu1:.6f}")
        click.echo(f"recursion bound  {cert.recursion_bound:.6f}  "
                   f"tail max ||eps|| {cert.eps_tail_max:.6f}  ok={cert.recursion_ok}")
        click.echo(f"ultimate bound   {cert.ultimate_bound:.6f}  "
                   f"tail max ||e||   {cert.e_tail_max:.6f}  ok={cert.ultimate_ok}")
        if np.isfinite(cert.max_identity_residual):
            click.echo(f"identity residual {cert.max_identity_residual:.3e}")
    _guard(go)


if __name__ == "__main__":
    main()
