"""Run one benchmark workload and print its metrics as JSON.

Usage (from the repository root)::

    python3 perfbench/run.py --workload scan-pairing --seed 1 --seconds 30 \\
        --trace 0

``--trace 0`` launches the service as ``python -m repro serve`` /
``python -m repro coordinate`` processes and prints the end-to-end
metrics; ``--trace 1`` runs the servers in-process with spans around each
layer and prints the per-layer metrics.  The last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The run builds nothing: it needs the ``src/`` tree of the
checkout it is run from and exits 2 without a result when that is absent.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import shutil
import signal
import sys
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    from perfbench.workloads import WORKLOADS, make_inputs

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(
            f"error: unknown workload {args.workload!r} "
            f"(choose from {', '.join(WORKLOADS)})",
            file=sys.stderr,
        )
        return 2
    # SIGTERM unwinds like an error, so the ``finally`` blocks below stop
    # every server process the run started.
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))
    work = ROOT / ".perfbench_work" / f"{workload.name}-{args.seed}-{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        inputs = make_inputs(workload, args.seed)
        if args.trace:
            from perfbench import traced

            metrics, ledger, notes = traced.run(
                inputs, work, ROOT / ".perfbench_out", args.seed
            )
        else:
            from perfbench import endtoend

            metrics, ledger, notes = asyncio.run(
                endtoend.run(inputs, work, SRC, args.seconds)
            )
    except Exception:
        traceback.print_exc()
        for log in sorted(work.glob("*.log")):
            print(f"--- {log.name}", file=sys.stderr)
            print(log.read_text(errors="replace")[-2000:], file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for line in notes + ledger.lines(workload.name):
        print(line)
    for problem in ledger.first_errors:
        print(f"failed: {problem}")
    print(
        json.dumps(
            {
                "correct": ledger.total_failed == 0,
                "attempted": ledger.total_attempted,
                "failed": ledger.total_failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
