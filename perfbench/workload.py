"""One benchmark workload in its own process: set up, then time CLI commands.

Run by ``run.py``; not meant to be started by hand. The process pins every
BLAS thread pool to one thread before numpy is imported, imports robrsvd from
the checkout's ``src/``, generates its input from the workload seed with
``robrsvd.simulate.generate`` (and ``mask_random``), writes it, makes one
small warm-up call and prints ``ready``. That is the set-up. It then runs
``robrsvd.cli.main([...])`` in a closed loop, one command after the other,
checks every command's outputs, and prints one JSON line with the samples.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import csv
import json
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import numpy as np  # noqa: E402

import robrsvd  # noqa: E402
from robrsvd import cli  # noqa: E402
from robrsvd.simulate import CONTAMINATIONS, SimScenario, generate, mask_random  # noqa: E402

import tracing  # noqa: E402

MISSING = "."
# recon + residual must give back every observed input cell to this share of
# the largest observed magnitude (a few ulps of sequential deflation)
IDENTITY_RTOL = 1e-12
METHODS = ("svd", "rsvd", "robrsvd")


@dataclass(frozen=True)
class Case:
    """One prepared input: the CLI arguments plus what the checks compare with."""

    argv: tuple
    out: str
    jobs: int                      # operations one command performs
    values: np.ndarray = None      # decompose: input as written (0 at missing cells)
    mask: np.ndarray = None
    signal: np.ndarray = None      # noise-free surface
    rank: int = 1


@dataclass(frozen=True)
class Decompose:
    """``robrsvd decompose`` on ``inputs`` generated outlying-rows matrices.

    A fit's cost and accuracy depend on its draw (which rows are outlying,
    which cells are masked, how many imputation rounds follow), so one run
    times several draws of its seed instead of one.
    """

    size: int
    rank: int
    masked: int
    inputs: int = 1
    ceiling: float = float("inf")  # recovery_err above this fails the check

    def prepare(self, seed: int, workdir: str) -> list:
        out = os.path.join(workdir, "out")
        cases = []
        for k in range(self.inputs):
            data_seed, mask_seed = (int(x) for x in np.random.SeedSequence([seed, k]).generate_state(2))
            sim = generate(SimScenario(rank=self.rank, grid_size=(self.size, self.size),
                                       noise_variance=1.0, contamination="outlying_rows",
                                       seed=data_seed))
            if self.masked:
                sim = mask_random(sim, self.masked, seed=mask_seed)
            data = sim.data
            path = os.path.join(workdir, f"input{k}.csv")
            write_dense_csv(path, data.values, data.mask, data.row_grid, data.col_grid)
            argv = ("decompose", path, "--method", "robrsvd", "--rank", str(self.rank), "--out", out)
            cases.append(Case(argv, out, 1, np.array(data.values), np.array(data.mask),
                              sim.truth.signal, self.rank))
        return cases

    def check(self, case: Case, code: int) -> tuple[list, int, float]:
        """(problems, failed operations, recovery_err) of one finished command."""
        if code != 0:
            return [f"exit code {code}"], 1, float("nan")
        problems = []
        with open(os.path.join(case.out, "components.csv"), newline="") as fh:
            comps = list(csv.DictReader(fh))
        if len(comps) != case.rank:
            problems.append(f"{len(comps)} components, expected {case.rank}")
        problems += [f"component {c['component']} did not converge"
                     for c in comps if c["converged"] != "1"]
        recon, recon_mask = read_dense_csv(os.path.join(case.out, "reconstruction.csv"))
        resid, resid_mask = read_dense_csv(os.path.join(case.out, "residual.csv"))
        if not (np.array_equal(recon_mask, case.mask) and np.array_equal(resid_mask, case.mask)):
            problems.append("outputs do not keep the input's missing cells")
            return problems, 1, float("nan")
        obs = case.mask
        gap = float(np.max(np.abs(recon[obs] + resid[obs] - case.values[obs])))
        if gap > IDENTITY_RTOL * float(np.max(np.abs(case.values[obs]))):
            problems.append(f"reconstruction + residual misses the input by {gap:.3e}")
        err = float(np.linalg.norm(recon[obs] - case.signal[obs]) / np.linalg.norm(case.signal[obs]))
        if not err <= self.ceiling:
            problems.append(f"recovery_err {err:.4g} above ceiling {self.ceiling}")
        return problems, int(bool(problems)), err


@dataclass(frozen=True)
class Simulate:
    """``robrsvd simulate``: every scenario x method x replication at one grid."""

    size: int
    replications: int
    threads: int
    ceiling: float = float("inf")

    def prepare(self, seed: int, workdir: str) -> list:
        # one command already draws 100 datasets from the seed
        out = os.path.join(workdir, "out")
        argv = ("simulate", "--scenario", ",".join(CONTAMINATIONS), "--methods", ",".join(METHODS),
                "--rows", str(self.size), "--cols", str(self.size), "--sigma2", "1.0",
                "--replications", str(self.replications), "--seed", str(seed),
                "--threads", str(self.threads), "--output-format", "both", "--out", out)
        signal = generate(SimScenario(grid_size=(self.size, self.size))).truth.signal
        jobs = len(CONTAMINATIONS) * len(METHODS) * self.replications
        return [Case(argv, out, jobs, signal=signal)]

    def check(self, case: Case, code: int) -> tuple[list, int, float]:
        if code != 0:
            return [f"exit code {code}"], case.jobs, float("nan")
        with open(os.path.join(case.out, "summary.json")) as fh:
            result = json.load(fh)
        problems = [f"{f['scenario']}/{f['method']}/{f['replication']}: {f['error']}"
                    for f in result["failures"]]
        if problems:  # failed replications also shorten the summary
            return problems, len(problems), float("nan")
        rows = result["summary"]
        # rank 1: l2_u, l2_v, s_abs_error, frobenius per scenario and method
        expected = len(CONTAMINATIONS) * len(METHODS) * 4
        if len(rows) != expected or any(r["replications"] != self.replications for r in rows):
            return [f"summary has {len(rows)} rows, expected {expected} "
                    f"with {self.replications} replications each"], case.jobs, float("nan")
        frob = [r["median"] for r in rows if r["method"] == "robrsvd" and r["metric"] == "frobenius"]
        err = max(frob) / float(np.linalg.norm(case.signal))
        if not err <= self.ceiling:
            return [f"recovery_err {err:.4g} above ceiling {self.ceiling}"], case.jobs, err
        return [], 0, err


def _pool_threads() -> int:
    return min(2, len(os.sched_getaffinity(0)))


# name -> (timed workload, its warm-up call); why each exists is in README.md
WORKLOADS = {
    "decompose_large": (Decompose(400, 1, 0, inputs=5, ceiling=0.05), Decompose(24, 1, 0)),
    "decompose_masked": (Decompose(100, 2, 500, inputs=12, ceiling=0.2), Decompose(24, 2, 20)),
    "simulate_desk": (Simulate(40, 20, 1, ceiling=2.5), Simulate(16, 1, 1)),
    "simulate_threads": (Simulate(40, 20, _pool_threads(), ceiling=2.5),
                         Simulate(16, 1, _pool_threads())),
}


def write_dense_csv(path, values, mask, row_grid, col_grid) -> None:
    """The CLI's dense_csv input format, written with the benchmark's own code."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["row\\col"] + [repr(float(g)) for g in col_grid])
        for g, row, obs in zip(row_grid, values.tolist(), mask.tolist()):
            writer.writerow([repr(float(g))] + [repr(x) if ok else MISSING for x, ok in zip(row, obs)])


def read_dense_csv(path) -> tuple[np.ndarray, np.ndarray]:
    with open(path, newline="") as fh:
        cells = [row[1:] for row in list(csv.reader(fh))[1:]]
    mask = np.array([[c != MISSING for c in row] for row in cells])
    values = np.array([[float(c) if c != MISSING else 0.0 for c in row] for row in cells])
    return values, mask


def run_command(case: Case) -> tuple[int, float]:
    """Exit code and wall seconds of one CLI command on a fresh output directory."""
    shutil.rmtree(case.out, ignore_errors=True)
    start = time.perf_counter()
    try:
        code = cli.main(list(case.argv))
    except SystemExit as exc:  # argparse rejected the arguments
        code = exc.code if isinstance(exc.code, int) else 1
    return code, time.perf_counter() - start


def git_commit() -> str:
    """HEAD of the checkout, read from .git without leaving it; 'unknown' elsewhere."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def machine_context(workload: str, seed: int, trace: bool) -> dict:
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload,
        "seed": seed,
        "tracing": "on" if trace else "off",
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ[var] for var in
                         ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "robrsvd": robrsvd.__version__,
        "git_commit": git_commit(),
        "not_available": "cache drops and CPU pinning: the benchmark measures only its own processes",
    }


def measure(spec, cases: list, seconds: float, tracer) -> dict:
    """Closed loop: whole passes over the inputs, back to back, for about ``seconds``.

    Untraced, a pass runs every input once. Traced, a pass runs the first
    half of the inputs (at least one) twice each, untraced and then traced,
    so trace_overhead compares the same commands. Passes stop when another
    one would end further past ``seconds`` than stopping now; at least one
    pass runs, so every run covers the same inputs.
    """
    if tracer is None:
        steps = [(case, False) for case in cases]
    else:
        steps = [(case, t) for case in cases[:max(1, len(cases) // 2)] for t in (False, True)]
    untraced, traced, problems = [], [], []
    errs = {}
    attempted = failed = hooked_while_timed = 0
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        for case, traced_step in steps:
            if traced_step:
                with tracer:
                    code, dt = run_command(case)
                traced.append(dt)
            else:
                hooked_while_timed = max(hooked_while_timed, tracing.active_hooks())
                code, dt = run_command(case)
                untraced.append(dt)
            try:
                found, bad, err = spec.check(case, code)
            except (OSError, ValueError, KeyError) as exc:  # missing or malformed outputs
                found, bad, err = [f"outputs unreadable: {exc!r}"], case.jobs, float("nan")
            if np.isfinite(err):
                errs[case.argv] = err
            attempted += case.jobs
            failed += bad
            problems += found
        now = time.perf_counter()
        if now - start + (now - pass_start) / 2 > seconds:
            break
    return {
        "attempted": attempted,
        "failed": failed,
        "untraced_s": untraced,
        "traced_s": traced,
        "inputs": len({case.argv for case, _ in steps}),
        "jobs_per_command": cases[0].jobs,
        "recovery_err": statistics.fmean(errs.values()) if errs else 0.0,
        "recovery_ceiling": spec.ceiling,
        "problems": problems[:20],
        "hooks_active_while_timed": hooked_while_timed,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--setup-only", action="store_true",
                        help="exit after set-up (extra set-up samples)")
    parser.add_argument("--spans", help="write the traced spans to this .npz file")
    args = parser.parse_args(argv)

    if os.path.commonpath([os.path.abspath(robrsvd.__file__), SRC]) != SRC:
        print(f"robrsvd imported from {robrsvd.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    spec, warmup = WORKLOADS[args.workload]
    os.makedirs(args.workdir, exist_ok=True)
    cases = spec.prepare(args.seed, args.workdir)
    warm_dir = os.path.join(args.workdir, "warmup")
    os.makedirs(warm_dir, exist_ok=True)
    warm_case, = warmup.prepare(args.seed, warm_dir)
    code, _ = run_command(warm_case)
    if code != 0:
        print(f"warm-up call exited with {code}", file=sys.stderr)
        return 3
    print("ready", flush=True)
    if args.setup_only:
        return 0

    tracer = tracing.Tracer() if args.trace else None
    result = measure(spec, cases, args.seconds, tracer)
    result["context"] = machine_context(args.workload, args.seed, bool(args.trace))
    result["context"]["hooks_active_while_timed"] = result.pop("hooks_active_while_timed")
    if tracer is not None:
        result["layers"] = tracer.layer_metrics()
        result["hooks_absent"] = tracer.absent + sorted(tracer.broken)
        if args.spans:
            tracer.save(args.spans)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
