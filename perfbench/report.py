"""Run every workload once and print its end-to-end metrics as one table.

    python3 perfbench/report.py [--seed 1] [--seconds 25]

Each workload runs through ``run.py`` (so every command's outputs are
checked); the table adds ``failed_frac`` and ``recovery_err``, which the
JSON result carries only as ``failed``/``attempted`` and as the per-layer
metric ``quality.recovery_err``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from run import DEFAULT_SEED, WORKLOADS  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    args = parser.parse_args(argv)

    all_correct = True
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"],
            capture_output=True, text=True, timeout=180)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{workload}: benchmark failed (exit {proc.returncode})\n{proc.stderr}")
            all_correct = False
            continue
        result = json.loads(lines[-1])
        all_correct &= result["correct"]
        print(f"== {workload}: correct={result['correct']} "
              f"({result['failed']} of {result['attempted']} operations failed)")
        for line in lines[:-1]:
            if not line.startswith("context "):
                print("   " + line)
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
