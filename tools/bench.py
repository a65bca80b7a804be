"""Benchmark this checkout against a commit: alternating runs, one summary file.

    python3 tools/bench.py --against HEAD~1 --pairs 10 --out bench.json

Exports the tree of --against (git archive) into a temporary directory
outside the checkout.  Then, for each pair and each workload that
BENCHMARK.json lists, it runs `python3 benchmark/run.py --workload W
--seconds S --trace 0` (the workload's own seed; S defaults to
BENCHMARK.json's run_seconds) once in that tree ("base") and once in this
checkout ("change"), as it is on disk; even pairs run the base first, odd
pairs the change.  Each run's result is the JSON on its last line.  The
change is marked as having uncommitted changes when, before the first run,
a tracked file under MEASURED differs from the checkout's commit.

The summary file holds the environment, every run's result, and per
workload and end-to-end metric (BENCHMARK.json says which way is better):
each side's values in pair order, median and quartiles, the change's
median over the base's, the pairs the change won and lost (ties count for
neither), and whether the difference is resolved (see summarize).  It
ends with the 13 lines of tools/digests.py of each tree (the base's from
its own script; none if it has no such script) and whether they are
identical.  Run from the root of a source checkout.  Exit code 0 when every run passed its checks,
1 when one did not, 2 when a run gave no result.
"""

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# One BLAS thread in every run and in the digests, as benchmark/run.py sets.
BLAS_THREADS = {var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                     "MKL_NUM_THREADS")}
# A difference is resolved only over at least this many pairs ...
MIN_PAIRS = 10
# ... when at least this share of them goes one way.
WIN_SHARE = 0.9
# What the runs and the digests read of a checkout.
MEASURED = ("src", "benchmark", "tools", "BENCHMARK.json")


def quartiles(values):
    """(first quartile, median, third quartile), linear between order statistics."""
    if len(values) == 1:
        return (float(values[0]),) * 3
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(base, change, better):
    """One metric over paired runs: base[i] and change[i] ran in pair i.

    better is "lower" or "higher".  The difference is resolved when there
    are at least MIN_PAIRS pairs, at least WIN_SHARE of them go the way the
    medians differ, and the medians are further apart than either side's
    quartile spread; the verdict is then "better" or "worse" for the change.
    """
    if len(base) != len(change) or not base:
        raise ValueError("need one base and one change value per pair")
    (b1, bm, b3), (c1, cm, c3) = quartiles(base), quartiles(change)
    sign = 1.0 if better == "lower" else -1.0
    won = sum(sign * (b - c) > 0.0 for b, c in zip(base, change))
    lost = sum(sign * (c - b) > 0.0 for b, c in zip(base, change))
    gain = sign * (bm - cm)   # > 0: the change's median is better
    pairs = len(base)
    resolved = (pairs >= MIN_PAIRS and (won if gain > 0.0 else lost) >= WIN_SHARE * pairs
                and abs(gain) > max(b3 - b1, c3 - c1))
    return {
        "better": better, "base": list(base), "change": list(change),
        "base_median": bm, "base_quartiles": [b1, b3],
        "change_median": cm, "change_quartiles": [c1, c3],
        "ratio": cm / bm if bm else None,
        "pairs_won": won, "pairs_lost": lost, "resolved": resolved,
        "verdict": ("better" if gain > 0.0 else "worse") if resolved else None,
    }


def git(*cmd):
    return subprocess.run(["git", *cmd], cwd=ROOT, capture_output=True, text=True,
                          check=True).stdout.strip()


def export(ref, dest):
    """The tree of commit ref, unpacked under dest; returns (commit id, tree path)."""
    commit = git("rev-parse", "--verify", f"{ref}^{{commit}}")
    archive = subprocess.run(["git", "archive", "--format=tar", commit], cwd=ROOT,
                             capture_output=True, check=True).stdout
    tree = Path(dest) / "base"
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(tree, filter="data")
    return commit, tree


def run_once(tree, workload, args):
    """One benchmark run in tree; its result line, parsed."""
    cmd = [sys.executable, "benchmark/run.py", "--workload", workload,
           "--seconds", str(args.seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=tree, capture_output=True, text=True,
                         timeout=4 * args.seconds + 600)
    try:
        return json.loads(out.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stderr.write(out.stdout[-2000:] + out.stderr[-2000:])
        print(f"error: {workload} in {tree} gave no result (exit {out.returncode})",
              file=sys.stderr)
        raise SystemExit(2)


def tree_digests(tree):
    """The lines of tree's own tools/digests.py, run in tree; None if it has none."""
    if not (tree / "tools" / "digests.py").exists():
        return None
    out = subprocess.run([sys.executable, "tools/digests.py"], cwd=tree, capture_output=True,
                         text=True, check=True)
    return out.stdout.splitlines()


def environment():
    import numpy as np
    return {"python": platform.python_version(), "numpy": np.__version__,
            "machine": platform.machine(), "nproc": os.cpu_count(),
            "blas_threads": BLAS_THREADS}


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--against", required=True, help="the base commit, e.g. HEAD or a hash")
    p.add_argument("--pairs", type=int, default=MIN_PAIRS, help="runs of each tree per workload")
    p.add_argument("--seconds", type=float, default=float(spec["run_seconds"]),
                   help="benchmark/run.py --seconds (default: BENCHMARK.json's run_seconds)")
    p.add_argument("--out", type=Path, required=True, help="the summary file to write")
    args = p.parse_args()
    if args.pairs < 1 or args.seconds <= 0:
        p.error("--pairs must be >= 1 and --seconds > 0")
    os.environ.update(BLAS_THREADS)   # for the runs, and before the digests import numpy
    commit = git("rev-parse", "HEAD")
    dirty = bool(git("status", "--porcelain", "--untracked-files=no", "--", *MEASURED))
    metrics = {m["name"]: m["better"] for m in spec["end_to_end"]}
    workloads = [w["name"] for w in spec["workloads"]]

    runs = []
    with tempfile.TemporaryDirectory() as tmp:
        base_commit, base = export(args.against, tmp)
        for pair in range(args.pairs):
            sides = [("base", base), ("change", ROOT)]
            for name in workloads:
                for side, tree in sides if pair % 2 == 0 else sides[::-1]:
                    result = run_once(tree, name, args)
                    runs.append({"pair": pair, "workload": name, "side": side, **result})
                    values = " ".join(f"{m} {v['value']:.4g}"
                                      for m, v in result["metrics"].items())
                    print(f"# pair {pair} {name} {side}: failed {result['failed']} {values}",
                          file=sys.stderr)
        base_digests = tree_digests(base)

    def values(name, side, metric):
        return [r["metrics"][metric]["value"] for r in runs
                if r["workload"] == name and r["side"] == side]

    summary = {name: {metric: {"unit": runs[0]["metrics"][metric]["unit"],
                               **summarize(values(name, "base", metric),
                                           values(name, "change", metric), better)}
                      for metric, better in metrics.items()}
               for name in workloads}
    import digests
    change_digests = digests.lines()
    report = {
        "base": {"ref": args.against, "commit": base_commit},
        "change": {"commit": commit, "uncommitted_changes": dirty},
        "settings": {"pairs": args.pairs, "seconds": args.seconds,
                     "min_pairs": MIN_PAIRS, "win_share": WIN_SHARE},
        "environment": environment(),
        "runs": [{k: r[k] for k in ("pair", "workload", "side", "correct", "attempted",
                                    "failed")} for r in runs],
        "workloads": summary,
        "digests": {"base": base_digests, "change": change_digests,
                    "identical": None if base_digests is None else base_digests == change_digests},
    }
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    for name, table in summary.items():
        for metric, s in table.items():
            print(f"{name} {metric} {s['base_median']:.4g} -> {s['change_median']:.4g} "
                  f"{s['unit']} (won {s['pairs_won']} lost {s['pairs_lost']} of "
                  f"{args.pairs}) {s['verdict'] or 'unresolved'}")
    print(f"digests identical: {report['digests']['identical']}")
    return 0 if all(r["correct"] and not r["failed"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
