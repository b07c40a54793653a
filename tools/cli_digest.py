"""SHA-256 digest of every output of a fixed set of small robrsvd commands.

    python tools/cli_digest.py > digest.txt

Runs ``robrsvd`` (imported from the ``src/`` of this checkout) on inputs
of at most 40x40 that it generates itself, in a temporary directory, and
prints one ``sha256  path`` line per output file, sorted by path; manifests
are left out, because they record versions and settings rather than results.
Outputs are byte-identical only at the same BLAS threading, so the BLAS
thread variables default to 1. Two runs, or two checkouts, are compared with
``diff``. The commands cover decompose (svd, rsvd and robrsvd at ranks 1 and
2 on complete and masked input, in CSV and JSON, plus a fixed sigma with
lambda frozen after one iteration), gcv-trace on both sides and on a
one-point lambda grid of both inputs, plus gcv-trace at a fixed sigma,
simulate with and without missing cells at 1 and 2 workers, and transform
of a triplet file with its own missing token. The same triplet file, with
integer grid labels, is also decomposed at rank 2 after the log transform,
with 50 spline points, which writes its missing cells as that token. Last,
decompose (on both dense inputs) and simulate read their settings from
``--config`` files: rsvd at rank 2 on 5 lambda values, and rank 2 at noise
variance 0.5.
"""

from __future__ import annotations

import hashlib
import os
import sys
import tempfile

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import numpy as np  # noqa: E402

from robrsvd.cli import main  # noqa: E402
from robrsvd.dataio import MatrixFile, save  # noqa: E402
from robrsvd.matrices import ObservedMatrix  # noqa: E402
from robrsvd.simulate import SimScenario, generate, mask_random  # noqa: E402


def write_inputs() -> dict:
    """The dense input files, written under ``inputs/``, by name."""
    os.makedirs("inputs")
    complete = generate(SimScenario(grid_size=(40, 40), contamination="outlying_rows", seed=1)).data
    masked = mask_random(generate(SimScenario(rank=2, grid_size=(30, 25), contamination="outlying_rows",
                                              seed=2)), 60, seed=3).data
    save(complete, MatrixFile("inputs/complete.csv"))
    save(masked, MatrixFile("inputs/masked.csv"))
    # transform takes log2(x + 1/2), so its input is nonnegative
    rates = ObservedMatrix(np.abs(masked.values), masked.mask, 1900 + np.arange(30.0), np.arange(25.0))
    save(rates, MatrixFile("inputs/rates.txt", "hmd_triplet", "NA"))
    with open("inputs/decompose.cfg", "w") as fh:
        fh.write("method = rsvd\nrank = 2\nlambda-count = 5\n")
    with open("inputs/simulate.cfg", "w") as fh:
        fh.write("rank = 2\nsigma2 = 0.5\nlambda-count = 5\n")
    return {"complete": "inputs/complete.csv", "masked": "inputs/masked.csv"}


def commands(inputs: dict) -> list:
    runs = []
    for name, path in inputs.items():
        for method in ("svd", "rsvd", "robrsvd"):
            for rank in (1, 2):
                for fmt in ("csv", "json"):
                    runs.append(["decompose", path, "--method", method, "--rank", str(rank),
                                 "--output-format", fmt, "--out", f"out/decompose_{name}_{method}_{rank}_{fmt}"])
        runs.append(["decompose", path, "--sigma", "2.5", "--lambda-freeze-after", "1",
                     "--out", f"out/decompose_{name}_fixed_sigma"])
        for side in ("u", "v"):
            runs.append(["gcv-trace", path, "--trace", side, "--out", f"out/gcv_{name}_{side}.csv"])
        runs.append(["gcv-trace", path, "--lambda-min", "0.5", "--lambda-max", "0.5", "--lambda-count", "1",
                     "--out", f"out/gcv_{name}_one_point.csv"])
    runs.append(["gcv-trace", inputs["complete"], "--sigma", "2.5", "--out", "out/gcv_complete_fixed_sigma.csv"])
    for mask_count in (0, 20):
        for threads in (1, 2):
            runs.append(["simulate", "--rows", "20", "--cols", "20", "--replications", "2", "--seed", "5",
                         "--mask-count", str(mask_count), "--threads", str(threads), "--output-format", "both",
                         "--out", f"out/simulate_mask{mask_count}_threads{threads}"])
    runs.append(["transform", "inputs/rates.txt", "--format", "hmd_triplet", "--missing-token", "NA",
                 "--out", "out/rates_log.txt"])
    runs.append(["decompose", "inputs/rates.txt", "--format", "hmd_triplet", "--missing-token", "NA",
                 "--log2-half", "--rank", "2", "--spline-points", "50", "--out", "out/decompose_rates"])
    for name, path in inputs.items():
        runs.append(["decompose", path, "--config", "inputs/decompose.cfg", "--out", f"out/decompose_{name}_config"])
    runs.append(["simulate", "--config", "inputs/simulate.cfg", "--rows", "20", "--cols", "20", "--replications", "2",
                 "--seed", "5", "--output-format", "both", "--out", "out/simulate_config"])
    return runs


def digest(root: str) -> list:
    """``sha256  path`` of every file under ``root`` except the manifests."""
    lines = []
    for folder, _, files in os.walk(root):
        for name in files:
            if name.endswith("manifest.json"):
                continue
            path = os.path.relpath(os.path.join(folder, name), root)
            with open(os.path.join(root, path), "rb") as fh:
                lines.append(f"{hashlib.sha256(fh.read()).hexdigest()}  {path}")
    return sorted(lines, key=lambda line: line.split("  ", 1)[1])


def run() -> int:
    start = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            runs = commands(write_inputs())
            os.makedirs("out")
            for argv in runs:
                if main(argv) != 0:
                    print(f"robrsvd {' '.join(argv)} failed", file=sys.stderr)
                    return 1
            print("\n".join(digest("out")))
        finally:
            os.chdir(start)
    return 0


if __name__ == "__main__":
    sys.exit(run())
