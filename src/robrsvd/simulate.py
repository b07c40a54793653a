"""Contaminated two-way functional test-bed data and evaluation metrics.

The generator builds a smooth rank-one (or fixed rank-two) signal surface
on equally spaced grids, injects outliers in one of four patterns (random
cells, whole rows with a different shape, a shifted square block, or the
diagonal), then adds Gaussian noise. A fixed seed pins every draw, so a
scenario is a complete, reproducible description of a dataset. Metrics
compare fitted components against the stored truth after resolving the sign
ambiguity of singular vectors.
"""

from __future__ import annotations

import functools
import json
import multiprocessing
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .dataio import format_number, write_csv
from .decompose import METHODS, fit
from .matrices import ObservedMatrix
from .robust import RobustLossSpec
from .selection import LambdaGrid

__all__ = [
    "SimScenario",
    "SimTruth",
    "SimResult",
    "generate",
    "mask_random",
    "metric_l2",
    "metric_singular_value",
    "metric_principal_angle",
    "metric_frobenius",
    "run_benchmark",
    "BenchmarkResult",
    "write_summary_csv",
    "write_summary_json",
]

SIGNAL_SCALE = 773.0

CONTAMINATIONS = ("none", "outlying_cells", "outlying_rows", "outlying_block", "diagonal")

OUTLYING_CELL_COUNT = 100
OUTLYING_ROW_COUNT = 5
BLOCK_SIZE = 10

# the second pair's singular value, as a share of the leading one
RANK2_SINGULAR_RATIO = 0.35


@dataclass(frozen=True)
class SimScenario:
    """Generative description of one contaminated dataset."""

    rank: int = 1
    grid_size: tuple = (100, 100)
    noise_variance: float = 1.0
    contamination: str = "none"
    seed: int = 0

    def __post_init__(self):
        if self.rank not in (1, 2):
            raise ValueError("rank must be 1 or 2")
        if not 0 <= self.noise_variance < np.inf:
            raise ValueError(f"noise_variance must be a finite number >= 0, got {self.noise_variance}")
        if self.contamination not in CONTAMINATIONS:
            raise ValueError(f"contamination must be one of {CONTAMINATIONS}")

    @property
    def name(self) -> str:
        return self.contamination if self.rank == 1 else f"rank2_{self.contamination}"


@dataclass(frozen=True)
class SimTruth:
    """Noise-free components: singular values and unit-norm vector pairs."""

    singular_values: tuple
    left: np.ndarray   # (m, rank)
    right: np.ndarray  # (n, rank)

    @property
    def signal(self) -> np.ndarray:
        return (self.left * np.asarray(self.singular_values)) @ self.right.T


@dataclass(frozen=True)
class SimResult:
    truth: SimTruth
    data: ObservedMatrix
    contaminated_cells: tuple  # sorted (row, col) pairs
    scenario: SimScenario


def _unit(x: np.ndarray) -> np.ndarray:
    return x / np.linalg.norm(x)


def generate(scenario: SimScenario) -> SimResult:
    """Draw one dataset for the scenario; the seed fixes every random choice.

    The signal is SIGNAL_SCALE * u0 v0' with u0 the discretized, unit-
    normalized 10**y shape and v0 the sin(2*pi*z) shape, so the leading
    singular value of the clean surface is exactly SIGNAL_SCALE. At rank 2
    the design is fixed: exp(-2y) and cos(2*pi*z), Gram-Schmidt
    orthogonalized against u0 and v0, at RANK2_SINGULAR_RATIO times
    SIGNAL_SCALE. Outliers overwrite or shift signal cells relative to C1,
    the signal maximum; noise is added last, everywhere.
    """
    m, n = scenario.grid_size
    if m < 2 or n < 2:
        raise ValueError("grid_size must be at least 2x2")
    rng = np.random.default_rng(scenario.seed)
    y = np.linspace(0.0, 1.0, m)
    z = np.linspace(0.0, 1.0, n)

    u0 = _unit(10.0**y)
    v0 = _unit(np.sin(2.0 * np.pi * z))
    singular_values = [SIGNAL_SCALE]
    left = [u0]
    right = [v0]

    if scenario.rank == 2:
        u1 = np.exp(-2.0 * y)
        v1 = np.cos(2.0 * np.pi * z)
        u1 = _unit(u1 - (u1 @ u0) * u0)
        v1 = _unit(v1 - (v1 @ v0) * v0)
        singular_values.append(RANK2_SINGULAR_RATIO * SIGNAL_SCALE)
        left.append(u1)
        right.append(v1)

    truth = SimTruth(tuple(singular_values), np.column_stack(left), np.column_stack(right))
    signal = truth.signal
    c1 = float(signal.max())

    values = signal.copy()
    contaminated: list = []
    kind = scenario.contamination
    if kind == "outlying_cells":
        flat = rng.choice(m * n, size=OUTLYING_CELL_COUNT, replace=False)
        rows, cols = np.unravel_index(flat, (m, n))
        values[rows, cols] = rng.uniform(c1, 2.0 * c1, size=OUTLYING_CELL_COUNT)
        contaminated = list(zip(rows.tolist(), cols.tolist()))
    elif kind == "outlying_rows":
        rows = rng.choice(m, size=OUTLYING_ROW_COUNT, replace=False)
        # same left profile, different right shape: C (1 + sin(4*pi*z)),
        # unit-normalized like the true v0
        v_out = _unit(1.0 + np.sin(4.0 * np.pi * z))
        values[rows] = SIGNAL_SCALE * np.outer(u0[rows], v_out)
        contaminated = [(int(i), j) for i in rows for j in range(n)]
    elif kind == "outlying_block":
        if m < BLOCK_SIZE or n < BLOCK_SIZE:
            raise ValueError(f"grid too small for a {BLOCK_SIZE}x{BLOCK_SIZE} outlying block")
        i0 = int(rng.integers(0, m - BLOCK_SIZE + 1))
        j0 = int(rng.integers(0, n - BLOCK_SIZE + 1))
        shift = rng.uniform(2.0 * c1, 3.0 * c1)
        values[i0 : i0 + BLOCK_SIZE, j0 : j0 + BLOCK_SIZE] += shift
        contaminated = [(i, j) for i in range(i0, i0 + BLOCK_SIZE) for j in range(j0, j0 + BLOCK_SIZE)]
    elif kind == "diagonal":
        k = min(m, n)
        values[np.arange(k), np.arange(k)] = rng.uniform(c1, 2.0 * c1, size=k)
        contaminated = [(i, i) for i in range(k)]

    if scenario.noise_variance > 0:
        values = values + rng.normal(0.0, np.sqrt(scenario.noise_variance), size=(m, n))

    data = ObservedMatrix(values, None, y, z)
    return SimResult(truth, data, tuple(sorted(contaminated)), scenario)


def mask_random(result: SimResult, count: int, seed: int) -> SimResult:
    """Delete ``count`` uniformly random cells from the dataset (mask them out)."""
    m, n = result.data.shape
    if not 0 <= count < m * n:
        raise ValueError(f"count must be in [0, {m * n})")
    if count == 0:
        return result
    rng = np.random.default_rng(seed)
    flat = rng.choice(m * n, size=count, replace=False)
    mask = result.data.mask.copy()
    mask[np.unravel_index(flat, (m, n))] = False
    data = ObservedMatrix(result.data.values, mask, result.data.row_grid, result.data.col_grid)
    return SimResult(result.truth, data, result.contaminated_cells, result.scenario)


def align_sign(est: np.ndarray, truth: np.ndarray) -> np.ndarray:
    """Flip the estimate if that increases its inner product with the truth."""
    est = np.asarray(est, dtype=float)
    return -est if float(est @ truth) < 0 else est


def metric_l2(est: np.ndarray, truth: np.ndarray) -> float:
    """Euclidean distance between unit-norm vectors after sign alignment."""
    est = np.asarray(est, dtype=float)
    truth = np.asarray(truth, dtype=float)
    if est.shape != truth.shape:
        raise ValueError("vectors must have equal length")
    return float(np.linalg.norm(align_sign(est, truth) - truth))


def metric_singular_value(est_s: float, true_s: float = SIGNAL_SCALE) -> float:
    """Absolute error of the estimated singular value."""
    return abs(float(est_s) - float(true_s))


def _orthonormal_basis(basis: np.ndarray) -> np.ndarray:
    basis = np.atleast_2d(np.asarray(basis, dtype=float))
    if basis.ndim != 2:
        raise ValueError("basis must be a matrix of column vectors")
    q, r = np.linalg.qr(basis)
    diag = np.abs(np.diagonal(r))
    if diag.min() <= 1e-12 * max(diag.max(), 1e-300):
        raise ValueError("basis is rank deficient")
    return q


def metric_principal_angle(est_basis: np.ndarray, true_basis: np.ndarray) -> float:
    """Largest principal angle between two subspaces, in degrees.

    Orthonormalizes both bases by QR and takes arccos of the smallest
    singular value of the cross-product (the symmetrized, numerically safe
    version of its minimum eigenvalue).
    """
    q_est = _orthonormal_basis(est_basis)
    q_true = _orthonormal_basis(true_basis)
    if q_est.shape != q_true.shape:
        raise ValueError("bases must have matching shapes")
    rho = float(np.linalg.svd(q_est.T @ q_true, compute_uv=False).min())
    return float(np.degrees(np.arccos(np.clip(rho, -1.0, 1.0))))


def metric_frobenius(est_matrix: np.ndarray, true_matrix: np.ndarray) -> float:
    """Frobenius norm of the reconstruction error."""
    est_matrix = np.asarray(est_matrix, dtype=float)
    true_matrix = np.asarray(true_matrix, dtype=float)
    if est_matrix.shape != true_matrix.shape:
        raise ValueError("matrices must have equal shape")
    return float(np.linalg.norm(est_matrix - true_matrix))


@dataclass(frozen=True)
class BenchmarkResult:
    """Raw per-replication metrics plus their quartile summary."""

    records: tuple   # dicts: scenario, method, sigma2, replication, metric, value
    summary: tuple   # dicts: scenario, method, sigma2, metric, median, q1, q3, replications
    failures: tuple  # dicts: scenario, method, replication, error


def _replication_seed(base_seed: int, scenario_index: int, replication: int) -> int:
    ss = np.random.SeedSequence([int(base_seed), int(scenario_index), int(replication)])
    return int(ss.generate_state(1)[0])


def _one_replication(job, base_seed, mask_count, loss, penalty_grid):
    """(metrics, None) or (None, error text) of one (scenario index, scenario, method, rep) job."""
    scenario_index, scenario, method, replication = job
    try:
        seed = _replication_seed(base_seed, scenario_index, replication)
        result = generate(replace(scenario, seed=seed))
        if mask_count:
            result = mask_random(result, mask_count, seed=_replication_seed(base_seed + 1, scenario_index, replication))
        decomp = fit(result.data, method=method, rank=scenario.rank,
                     loss=loss, penalty_grid=penalty_grid)

        truth = result.truth
        metrics = {}
        if scenario.rank == 1:
            pair = decomp.components[0]
            metrics["l2_u"] = metric_l2(pair.u, truth.left[:, 0])
            metrics["l2_v"] = metric_l2(pair.v, truth.right[:, 0])
            metrics["s_abs_error"] = metric_singular_value(pair.s, truth.singular_values[0])
            metrics["frobenius"] = metric_frobenius(decomp.reconstruction(), truth.signal)
        else:
            metrics["frobenius"] = metric_frobenius(decomp.reconstruction(), truth.signal)
            metrics["principal_angle_left"] = metric_principal_angle(decomp.left_vectors(), truth.left)
            metrics["principal_angle_right"] = metric_principal_angle(decomp.right_vectors(), truth.right)
    except Exception as exc:  # record, don't abort the sweep
        return None, f"{type(exc).__name__}: {exc}"
    return metrics, None


def _worker_count(threads: int, jobs: int) -> int:
    """Worker processes for a sweep: never more than the jobs or the usable cores."""
    return min(threads, jobs, len(os.sched_getaffinity(0)))


def run_benchmark(
    scenarios,
    methods=METHODS,
    replications: int = 20,
    base_seed: int = 0,
    threads: int = 1,
    mask_count: int = 0,
    loss: RobustLossSpec = None,
    penalty_grid: LambdaGrid = None,
) -> BenchmarkResult:
    """Monte Carlo comparison of methods across scenarios.

    Every (scenario, replication) pair gets its own seed derived from
    ``base_seed``, so results are reproducible and the same at every worker
    count. With ``threads > 1`` on Linux the jobs run on forked worker
    processes, at most one per usable core; elsewhere they run in this
    process. All methods see the identical data draw within a replication. A
    failed replication is recorded and skipped, never fatal. A repeated
    method, or two scenarios with the same name and noise variance, raise
    ValueError, since their summary rows would merge.
    """
    if replications < 1:
        raise ValueError("replications must be at least 1")
    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")
    scenarios, methods = list(scenarios), list(methods)
    for scenario in scenarios:
        m, n = scenario.grid_size
        if not 0 <= mask_count < m * n:
            raise ValueError(f"mask_count must be in [0, {m * n}) for a {m}x{n} scenario, got {mask_count}")
    # the summary groups by scenario name, noise variance and method, so a repeat would merge rows
    for what, keys in (("method", methods),
                       ("scenario name and noise variance", [(s.name, s.noise_variance) for s in scenarios])):
        repeated = [key for i, key in enumerate(keys) if key in keys[:i]]
        if repeated:
            raise ValueError(f"repeated {what} {repeated[0]!r}: its summary rows would merge")
    unknown = [m for m in methods if m not in METHODS]
    if unknown:
        raise ValueError(f"unknown method(s) {unknown}; expected one of {', '.join(METHODS)}")

    jobs = [
        (si, scenario, method, rep)
        for si, scenario in enumerate(scenarios)
        for method in methods
        for rep in range(replications)
    ]
    work = functools.partial(_one_replication, base_seed=base_seed, mask_count=mask_count,
                             loss=loss, penalty_grid=penalty_grid)
    # fork by name: spawn and forkserver re-import __main__ and break unguarded scripts; macOS's fork is unsafe
    workers = _worker_count(threads, len(jobs)) if sys.platform == "linux" else 1
    if workers > 1:
        with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork")) as pool:
            outcomes = list(pool.map(work, jobs, chunksize=max(1, len(jobs) // (4 * workers))))
    else:
        outcomes = [work(job) for job in jobs]

    records, failures = [], []
    for (_, scenario, method, rep), (metrics, err) in zip(jobs, outcomes):
        if err is not None:
            failures.append({
                "scenario": scenario.name, "method": method, "replication": rep, "error": err,
            })
            continue
        for metric, value in metrics.items():
            records.append({
                "scenario": scenario.name,
                "method": method,
                "sigma2": scenario.noise_variance,
                "replication": rep,
                "metric": metric,
                "value": value,
            })

    groups = {}  # first-seen key order, values in record order
    for rec in records:
        key = (rec["scenario"], rec["method"], rec["sigma2"], rec["metric"])
        groups.setdefault(key, []).append(rec["value"])
    summary = []
    for (scenario_name, method, sigma2, metric), vals in groups.items():
        q1, med, q3 = np.percentile(vals, [25.0, 50.0, 75.0])
        summary.append({
            "scenario": scenario_name,
            "method": method,
            "sigma2": sigma2,
            "metric": metric,
            "median": float(med),
            "q1": float(q1),
            "q3": float(q3),
            "replications": len(vals),
        })

    return BenchmarkResult(tuple(records), tuple(summary), tuple(failures))


def write_summary_csv(result: BenchmarkResult, path) -> None:
    write_csv(path, ["scenario", "method", "sigma2", "metric", "median", "q1", "q3", "replications"], (
        [row["scenario"], row["method"], format_number(row["sigma2"]), row["metric"],
         format_number(row["median"]), format_number(row["q1"]), format_number(row["q3"]), row["replications"]]
        for row in result.summary))


def write_summary_json(result: BenchmarkResult, path) -> None:
    with open(path, "w") as fh:
        json.dump({"summary": list(result.summary), "failures": list(result.failures)}, fh, indent=2)
        fh.write("\n")
