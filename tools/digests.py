"""Print the tracked run digests: one line per run, in a fixed order.

    python3 tools/digests.py

Each line reads `name digest/csv_sha256 binding N`: the first 16 hex of
the RunLog digest (benchmark/reference.py's log_digest), of the SHA-256
of the run's emitted CSV, and the run's binding ticks.  A change that
keeps every run byte-identical prints the same lines; lines() returns
them to other tools, such as tools/bench.py.  Run from the root
of a source checkout; the package is imported from its src/.
"""

import hashlib
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmark")]

import numpy as np  # noqa: E402
from reference import log_digest  # noqa: E402
from workloads import MANEUVER_HARSH, config_yaml  # noqa: E402

from morphwing.harness import ScenarioConfig, emit_csv, mla_config, run_scenario  # noqa: E402


def configs():
    harsh = ScenarioConfig.from_yaml(config_yaml(MANEUVER_HARSH, 100))
    clean = ScenarioConfig()
    noise = ScenarioConfig.from_dict({"noise": {"enabled": True}})
    fy30 = mla_config("fy+30%")
    runs = [("harsh qp-v", harsh, "indi-qp-v"), ("harsh qp", harsh, "indi-qp"),
            ("qp-v default clean", clean, "indi-qp-v"), ("qp-v default noise", noise, "indi-qp-v"),
            ("qp-v fy+30%", fy30, "indi-qp-v"), ("qp default clean", clean, "indi-qp"),
            ("pi default clean", clean, "indi-pi"), ("pi harsh", harsh, "indi-pi"),
            ("lqg default clean", clean, "lqg"), ("lqg default noise", noise, "lqg"),
            ("lqg harsh", harsh, "lqg"), ("open-loop default", clean, "open-loop"),
            ("open-loop harsh", harsh, "open-loop")]
    return [(name, replace(cfg, controller=c)) for name, cfg, c in runs]


def lines():
    """The tracked digest lines, one per run of configs(), in its order."""
    out = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, cfg in configs():
            log, _ = run_scenario(cfg, pair_open_loop=False)
            path = emit_csv(log, Path(tmp) / "run.csv")
            csv = hashlib.sha256(path.read_bytes()).hexdigest()
            out.append(f"{name} {log_digest(log)[:16]}/{csv[:16]} "
                       f"binding {int(np.sum(log.sat_flags))}")
    return out


def main():
    for line in lines():
        print(line)


if __name__ == "__main__":
    main()
