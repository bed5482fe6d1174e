"""Run one workload over several seeds and print each metric's spread.

Usage (from the repository root)::

    python3 perfbench/spread.py --workload scan-pairing --runs 10 \\
        --seconds 30 [--first-seed 1]

Each run is ``perfbench/run.py --trace 0`` with the next seed.  For every
metric the script prints the median, the quartiles
(``statistics.quantiles(n=4)``) and the interquartile range as a share of
the median; with a
``BENCHMARK.json`` at the root it also prints each end-to-end metric's
bound and whether the spread is within a third of it.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.measure import spread  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    bounds = {}
    spec = ROOT / "BENCHMARK.json"
    if spec.exists():
        bounds = {
            m["name"]: m["bound"]
            for m in json.loads(spec.read_text())["end_to_end"]
        }
    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        proc = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(args.seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=False,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode or not lines:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}")
            return 1
        result = json.loads(lines[-1])
        print(f"seed {seed}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}",
              flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
    worst = 0.0
    for name, series in values.items():
        summary = spread(series)
        print(f"{name}: " + " ".join(f"{v:.4g}" for v in series))
        line = (
            f"{name:40s} median={summary['median']:.4g} {units[name]} "
            f"q1={summary['q1']:.4g} q3={summary['q3']:.4g} "
            f"iqr/median={summary['iqr_share']:.3f}"
        )
        if name in bounds:
            ok = summary["iqr_share"] < bounds[name] / 3
            line += f" bound={bounds[name]} {'ok' if ok else 'WIDE'}"
            worst = max(worst, summary["iqr_share"] / bounds[name])
        print(line)
    if bounds:
        print(f"largest spread as a share of its bound: {worst:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
