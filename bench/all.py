"""Run every workload once, one after another, and print their metrics.

    python3 bench/all.py --seed 1 --seconds 30 [--trace 1]

Run from the root of a checkout. Each workload runs as its own
``bench/run.py`` process; the exit code is 1 if any of them failed.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from run import WORKLOADS

HERE = Path(__file__).resolve().parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    status = 0
    for workload in WORKLOADS:
        command = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(command, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            print(f"{workload}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            status = 1
            continue
        result = json.loads(lines[-1])
        status |= proc.returncode
        for name, entry in result["metrics"].items():
            print(f"{workload:14s} {name:48s} {entry['value']:.6g} {entry['unit']}")
        print(f"{workload:14s} {'failed_ratio':48s} {result['failed'] / result['attempted']:.6g} ratio")
    return status


if __name__ == "__main__":
    sys.exit(main())
