"""Benchmark of the robrsvd command line: one workload per run.

    python3 perfbench/run.py --workload decompose_large --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; robrsvd is imported from its ``src/``.
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run. The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``. Workloads,
metrics and seeds are described in ``perfbench/README.md``.

Set-up is measured from outside: each workload process is timed from its
start until it prints ``ready`` (interpreter start, imports, input
generation and writing, one warm-up call). Two extra processes do only the
set-up, and ``setup_s`` is the median of the three.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("decompose_large", "decompose_masked", "simulate_desk", "simulate_threads")
DEFAULT_SEED = 1
HELD_OUT_SEED = 2
SETUP_SAMPLES = 3
# every process of one run must be gone well before 180 s
RUN_BUDGET_S = 170.0


class WorkloadFailed(RuntimeError):
    pass


def run_child(argv: list, deadline: float) -> tuple[float, list]:
    """Start a workload process; return (seconds until 'ready', stdout lines after it).

    The process is killed at ``deadline`` (a perf_counter value) and always
    waited for.
    """
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "workload.py"), *argv],
                            cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(max(deadline - start, 0.0), proc.kill)
    watchdog.start()
    ready_s, lines = None, []
    try:
        for line in proc.stdout:
            if ready_s is None and line.strip() == "ready":
                ready_s = time.perf_counter() - start
            elif ready_s is not None:
                lines.append(line)
    finally:
        proc.stdout.close()
        code = proc.wait()
        watchdog.cancel()
    if code != 0 or ready_s is None:
        raise WorkloadFailed(f"workload process {argv[:2]} exited with {code}")
    return ready_s, lines


def end_to_end(result: dict, setup: list) -> dict:
    times = result["untraced_s"]
    done = result["attempted"] - result["failed"]
    return {
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "command_s": {"value": statistics.median(times), "unit": "s"},
        "jobs_per_s": {"value": done / sum(times), "unit": "1/s"},
        "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
    }


def per_layer(result: dict) -> dict:
    layers = dict(result["layers"])
    # the traced and untraced commands ran the same inputs, pairwise
    overhead = sum(result["traced_s"]) / sum(result["untraced_s"])
    layers["trace_overhead"] = {"value": overhead, "unit": "ratio"}
    layers["quality.recovery_err"] = {"value": result["recovery_err"], "unit": "ratio"}
    return layers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"workload seed (default {DEFAULT_SEED}; held-out seed {HELD_OUT_SEED})")
    parser.add_argument("--seconds", type=float, default=25.0, help="measuring time of the run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "robrsvd", "cli.py")):
        print(f"no robrsvd sources under {os.path.join(ROOT, 'src')}; run from a checkout",
              file=sys.stderr)
        return 2

    deadline = time.perf_counter() + RUN_BUDGET_S
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    results_dir = os.path.join(ROOT, ".perfbench", "results")
    work_root = os.path.join(ROOT, ".perfbench", "work", tag)
    os.makedirs(results_dir, exist_ok=True)
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    setup = []
    try:
        for k in range(SETUP_SAMPLES - 1):
            ready_s, _ = run_child(common + ["--seconds", "0", "--setup-only",
                                             "--workdir", os.path.join(work_root, f"setup{k}")],
                                   deadline)
            setup.append(ready_s)
        measure = ["--seconds", str(args.seconds), "--trace", str(args.trace),
                   "--workdir", os.path.join(work_root, "run")]
        if args.trace:
            measure += ["--spans", os.path.join(results_dir, f"{tag}-spans.npz")]
        ready_s, lines = run_child(common + measure, deadline)
        setup.append(ready_s)
    except WorkloadFailed as exc:
        print(f"benchmark did not run: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
    result = json.loads(lines[-1])
    result["setup_s"] = setup
    with open(os.path.join(results_dir, f"{tag}.json"), "w") as fh:
        json.dump(result, fh, indent=1)

    print("context " + json.dumps(result["context"]))
    for problem in result["problems"]:
        print(f"check failed: {problem}")
    if args.trace:
        metrics = per_layer(result)
        if result["hooks_absent"]:
            print("absent hooks: " + ", ".join(result["hooks_absent"]))
        print(f"per-command layer metrics over {len(result['traced_s'])} traced command(s) "
              f"on {result['inputs']} input(s)")
    else:
        metrics = end_to_end(result, setup)
        print(f"command_s: median of {len(result['untraced_s'])} command(s) on "
              f"{result['inputs']} input(s); setup_s: median of {len(setup)} set-ups")
        print(f"failed_frac {result['failed'] / result['attempted']:.6g} ratio "
              f"({result['failed']} of {result['attempted']} operations)")
        print(f"recovery_err {result['recovery_err']:.6g} ratio "
              f"(gated at {result['recovery_ceiling']}; per-layer metric quality.recovery_err)")
    for name, metric in metrics.items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({
        "correct": result["failed"] == 0 and not result["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
