"""Command-line interface: decompose | simulate | gcv-trace | transform.

Every run resolves its configuration from three layers (command-line flag,
then config-file entry, then built-in default), echoes the resolved values
into a machine-readable manifest next to the outputs, and formats CSV
numbers with 17 significant digits so reruns are byte-identical.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

import numpy as np
import scipy

from . import __version__
from .dataio import MatrixFile, load, log_transform, save, save_json
from .decompose import FitOptions, fit
from .imputation import _initial_fill
from .robust import DEFAULT_THETA, RobustLossSpec, estimate_scale_mad
from .selection import GcvTrace, LambdaGrid, _ConditionalKernel, select_lambda
from .penalties import TwoWayPenaltySpec, build_roughness_penalty
from .simulate import (
    SimScenario,
    run_benchmark,
    write_summary_csv,
    write_summary_json,
    CONTAMINATIONS,
)
from .splines import interpolate


def _fmt(x) -> str:
    return f"{float(x):.16e}"


# ---------------------------------------------------------------------------
# configuration: flag > config file > default


def _parse_config_value(text: str):
    text = text.strip()
    low = text.lower()
    if low in ("true", "false"):
        return low == "true"
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            pass
    return text


def read_config_file(path) -> dict:
    """Flat ``key = value`` file; '#' starts a comment; dashes become underscores."""
    config = {}
    with open(path) as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{line_no}: expected 'key = value'")
            key, value = line.split("=", 1)
            config[key.strip().replace("-", "_")] = _parse_config_value(value)
    return config


def _resolve(args: argparse.Namespace, defaults: dict) -> dict:
    """Fill unset flags from the config file, then from the defaults table."""
    config = read_config_file(args.config) if getattr(args, "config", None) else {}
    unknown = set(config) - set(defaults)
    if unknown:
        raise ValueError(f"unknown config key(s): {sorted(unknown)}")
    resolved = {}
    for key, default in defaults.items():
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            resolved[key] = flag_value
        elif key in config:
            resolved[key] = config[key]
        else:
            resolved[key] = default
    return resolved


def write_manifest(out_dir, command: str, config: dict, filename: str = "manifest.json") -> None:
    manifest = {
        "command": command,
        "config": config,
        "versions": {
            "robrsvd": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "python": sys.version.split()[0],
        },
    }
    path = filename if out_dir is None else os.path.join(out_dir, filename)
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _matrix_file(cfg: dict, path_key: str = "input") -> MatrixFile:
    return MatrixFile(path=cfg[path_key], format=cfg["format"], missing_token=cfg["missing_token"])


def _lambda_grid(cfg: dict) -> LambdaGrid:
    return LambdaGrid.log_default(cfg["lambda_min"], cfg["lambda_max"], cfg["lambda_count"])


def _loss(cfg: dict) -> RobustLossSpec:
    if cfg["sigma"] == "mad":
        return RobustLossSpec(theta=cfg["theta"])
    return RobustLossSpec(theta=cfg["theta"], sigma=float(cfg["sigma"]), sigma_source="fixed")


# ---------------------------------------------------------------------------
# decompose


DECOMPOSE_DEFAULTS = {
    "input": None,
    "format": "dense_csv",
    "missing_token": ".",
    "method": "robrsvd",
    "rank": 1,
    "theta": DEFAULT_THETA,
    "sigma": "mad",
    "lambda_min": 1e-6,
    "lambda_max": 1e4,
    "lambda_count": 20,
    "tol": 1e-6,
    "max_iter": 100,
    "lambda_freeze_after": 5,
    "log2_half": False,
    "out": "decompose_out",
    "output_format": "csv",
    "spline_points": 200,
}


def _write_vector_csv(path, grid, values, grid_name: str) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([grid_name, "value"])
        for g, val in zip(grid, values):
            writer.writerow([repr(float(g)), _fmt(val)])


def cmd_decompose(args) -> int:
    cfg = _resolve(args, DECOMPOSE_DEFAULTS)
    if not cfg["input"]:
        raise ValueError("decompose needs an input file")
    os.makedirs(cfg["out"], exist_ok=True)

    X = load(_matrix_file(cfg))
    if cfg["log2_half"]:
        X = log_transform(X)

    opts = FitOptions(tol=cfg["tol"], max_iter=cfg["max_iter"],
                      lambda_freeze_after=cfg["lambda_freeze_after"])
    decomp = fit(
        X,
        method=cfg["method"],
        rank=cfg["rank"],
        loss=_loss(cfg),
        penalty_grid=_lambda_grid(cfg),
        opts=opts,
    )

    out = cfg["out"]
    as_json = cfg["output_format"] == "json"
    meta = []
    for k, pair in enumerate(decomp.components, start=1):
        meta.append({
            "component": k,
            "s": pair.s,
            "lambda_u": pair.lambda_u,
            "lambda_v": pair.lambda_v,
            "iterations": pair.iterations,
            "converged": pair.converged,
            "final_objective": pair.final_objective,
        })
        if as_json:
            continue
        _write_vector_csv(os.path.join(out, f"component_{k}_u.csv"), X.row_grid, pair.u, "row_grid")
        _write_vector_csv(os.path.join(out, f"component_{k}_v.csv"), X.col_grid, pair.v, "col_grid")
        with open(os.path.join(out, f"component_{k}_info.csv"), "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["s", "lambda_u", "lambda_v", "iterations", "converged"])
            writer.writerow([_fmt(pair.s), _fmt(pair.lambda_u), _fmt(pair.lambda_v),
                             pair.iterations, int(pair.converged)])
        for side, trace in (("u", pair.history.get("gcv_trace_u")),
                            ("v", pair.history.get("gcv_trace_v"))):
            if isinstance(trace, GcvTrace):
                trace.write_csv(os.path.join(out, f"component_{k}_gcv_{side}.csv"))
        # dense spline evaluations of both vectors, for plotting (splines
        # need at least 3 knots)
        if X.row_grid.size >= 3:
            interpolate(pair.u, X.row_grid).export_csv(
                os.path.join(out, f"component_{k}_u_dense.csv"), num=cfg["spline_points"])
        if X.col_grid.size >= 3:
            interpolate(pair.v, X.col_grid).export_csv(
                os.path.join(out, f"component_{k}_v_dense.csv"), num=cfg["spline_points"])

    recon = X.with_values(np.where(X.mask, decomp.reconstruction(), 0.0))
    if as_json:
        payload = {
            "components": [
                dict(info, u=list(map(float, pair.u)), v=list(map(float, pair.v)))
                for info, pair in zip(meta, decomp.components)
            ],
            "row_grid": X.row_grid.tolist(),
            "col_grid": X.col_grid.tolist(),
        }
        with open(os.path.join(out, "decomposition.json"), "w") as fh:
            json.dump(payload, fh)
            fh.write("\n")
        save_json(X.with_values(decomp.residual.residuals), os.path.join(out, "residual.json"))
        save_json(recon, os.path.join(out, "reconstruction.json"))
    else:
        save(X.with_values(decomp.residual.residuals),
             MatrixFile(os.path.join(out, "residual.csv"), "dense_csv", cfg["missing_token"]))
        save(recon, MatrixFile(os.path.join(out, "reconstruction.csv"), "dense_csv", cfg["missing_token"]))
        with open(os.path.join(out, "components.csv"), "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["component", "s", "lambda_u", "lambda_v", "iterations", "converged"])
            for info in meta:
                writer.writerow([info["component"], _fmt(info["s"]), _fmt(info["lambda_u"]),
                                 _fmt(info["lambda_v"]), info["iterations"], int(info["converged"])])

    write_manifest(out, "decompose", cfg)
    return 0


# ---------------------------------------------------------------------------
# simulate


SIMULATE_DEFAULTS = {
    "scenario": "none,outlying_cells,outlying_rows,outlying_block,diagonal",
    "rank": 1,
    "rows": 100,
    "cols": 100,
    "sigma2": "1.0",
    "methods": "svd,rsvd,robrsvd",
    "replications": 20,
    "seed": 0,
    "threads": 1,
    "mask_count": 0,
    "theta": DEFAULT_THETA,
    "lambda_min": 1e-6,
    "lambda_max": 1e4,
    "lambda_count": 20,
    "out": "simulate_out",
    "output_format": "csv",
}


def _split_list(text, cast=str) -> list:
    if isinstance(text, (int, float)):
        return [cast(text)]
    return [cast(part.strip()) for part in str(text).split(",") if part.strip()]


def cmd_simulate(args) -> int:
    cfg = _resolve(args, SIMULATE_DEFAULTS)
    os.makedirs(cfg["out"], exist_ok=True)

    scenarios = [
        SimScenario(rank=cfg["rank"], grid_size=(cfg["rows"], cfg["cols"]),
                    noise_variance=var, contamination=kind)
        for kind in _split_list(cfg["scenario"])
        for var in _split_list(cfg["sigma2"], float)
    ]
    for scenario in scenarios:
        if scenario.contamination not in CONTAMINATIONS:
            raise ValueError(f"unknown scenario {scenario.contamination!r}")

    result = run_benchmark(
        scenarios,
        methods=_split_list(cfg["methods"]),
        replications=cfg["replications"],
        base_seed=cfg["seed"],
        threads=cfg["threads"],
        mask_count=cfg["mask_count"],
        loss=RobustLossSpec(theta=cfg["theta"]),
        penalty_grid=_lambda_grid(cfg),
    )

    if cfg["output_format"] in ("csv", "both"):
        write_summary_csv(result, os.path.join(cfg["out"], "summary.csv"))
    if cfg["output_format"] in ("json", "both"):
        write_summary_json(result, os.path.join(cfg["out"], "summary.json"))
    write_manifest(cfg["out"], "simulate", cfg)
    if result.failures:
        print(f"{len(result.failures)} replication(s) failed; see summary.json", file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------
# gcv-trace


GCV_TRACE_DEFAULTS = {
    "input": None,
    "format": "dense_csv",
    "missing_token": ".",
    "trace": "v",
    "theta": DEFAULT_THETA,
    "sigma": "mad",
    "lambda_min": 1e-6,
    "lambda_max": 1e4,
    "lambda_count": 20,
    "out": "gcv_trace.csv",
}


def cmd_gcv_trace(args) -> int:
    """One conditional GCV sweep from the SVD initialization of the input."""
    cfg = _resolve(args, GCV_TRACE_DEFAULTS)
    if not cfg["input"]:
        raise ValueError("gcv-trace needs an input file")
    X = load(_matrix_file(cfg))

    filled = X.values if X.is_complete else _initial_fill(X, "row_mean")
    u_mat, s_vec, vt = np.linalg.svd(filled, full_matrices=False)
    s, u, v = float(s_vec[0]), u_mat[:, 0], vt[0]

    residuals = np.where(X.mask, X.values - s * np.outer(u, v), 0.0)
    if cfg["sigma"] == "mad":
        sigma = estimate_scale_mad(residuals[X.mask])
    else:
        sigma = float(cfg["sigma"])
    loss = RobustLossSpec(theta=cfg["theta"], sigma=sigma, sigma_source="fixed")
    weights = np.where(X.mask, loss.weights(residuals, sigma), 0.0)

    # both smoothing parameters start at 0, so the other side is unpenalized
    spec = TwoWayPenaltySpec(build_roughness_penalty(X.row_grid), build_roughness_penalty(X.col_grid))
    grid = _lambda_grid(cfg)
    if cfg["trace"] == "v":
        kernel = _ConditionalKernel(X, u, weights, spec)
    elif cfg["trace"] == "u":
        kernel = _ConditionalKernel.for_u(X, v, weights, spec)
    else:
        raise ValueError("trace must be 'u' or 'v'")
    _, trace = select_lambda(grid, kernel.score)
    trace.write_csv(cfg["out"])
    write_manifest(None, "gcv-trace", cfg, filename=cfg["out"] + ".manifest.json")
    return 0


# ---------------------------------------------------------------------------
# transform


TRANSFORM_DEFAULTS = {
    "input": None,
    "format": "dense_csv",
    "missing_token": ".",
    "log2_half": True,
    "out": "transformed.csv",
}


def cmd_transform(args) -> int:
    cfg = _resolve(args, TRANSFORM_DEFAULTS)
    if not cfg["input"]:
        raise ValueError("transform needs an input file")
    X = load(_matrix_file(cfg))
    if cfg["log2_half"]:
        X = log_transform(X)
    save(X, MatrixFile(cfg["out"], cfg["format"], cfg["missing_token"]))
    write_manifest(None, "transform", cfg, filename=cfg["out"] + ".manifest.json")
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="robrsvd",
        description="Robust regularized SVD for two-way functional data",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(p):
        p.add_argument("--config", help="key = value file; explicit flags take precedence")

    p = sub.add_parser("decompose", help="fit a sequential low-rank decomposition of a matrix file")
    p.add_argument("input", nargs="?", help="matrix file")
    p.add_argument("--format", choices=["dense_csv", "hmd_triplet"])
    p.add_argument("--missing-token", dest="missing_token")
    p.add_argument("--method", choices=["svd", "rsvd", "robrsvd"])
    p.add_argument("--rank", type=int)
    p.add_argument("--theta", type=float, help="robustness threshold (inf for squared loss)")
    p.add_argument("--sigma", help="'mad' or a positive number")
    p.add_argument("--lambda-min", dest="lambda_min", type=float)
    p.add_argument("--lambda-max", dest="lambda_max", type=float)
    p.add_argument("--lambda-count", dest="lambda_count", type=int)
    p.add_argument("--tol", type=float)
    p.add_argument("--max-iter", dest="max_iter", type=int)
    p.add_argument("--lambda-freeze-after", dest="lambda_freeze_after", type=int)
    p.add_argument("--log2-half", dest="log2_half", action="store_const", const=True,
                   help="apply log2(x + 1/2) before fitting")
    p.add_argument("--out")
    p.add_argument("--output-format", dest="output_format", choices=["csv", "json"])
    p.add_argument("--spline-points", dest="spline_points", type=int)
    add_common(p)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("simulate", help="run the seeded simulation benchmark")
    p.add_argument("--scenario", help="comma list of " + ",".join(CONTAMINATIONS))
    p.add_argument("--rank", type=int)
    p.add_argument("--rows", type=int)
    p.add_argument("--cols", type=int)
    p.add_argument("--sigma2", help="comma list of noise variances")
    p.add_argument("--methods", help="comma list of svd,rsvd,robrsvd")
    p.add_argument("--replications", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--threads", type=int)
    p.add_argument("--mask-count", dest="mask_count", type=int)
    p.add_argument("--theta", type=float)
    p.add_argument("--lambda-min", dest="lambda_min", type=float)
    p.add_argument("--lambda-max", dest="lambda_max", type=float)
    p.add_argument("--lambda-count", dest="lambda_count", type=int)
    p.add_argument("--out")
    p.add_argument("--output-format", dest="output_format", choices=["csv", "json", "both"])
    add_common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("gcv-trace", help="GCV scores over a lambda grid for one conditional step")
    p.add_argument("input", nargs="?")
    p.add_argument("--format", choices=["dense_csv", "hmd_triplet"])
    p.add_argument("--missing-token", dest="missing_token")
    p.add_argument("--trace", choices=["u", "v"], help="which side's lambda to sweep")
    p.add_argument("--theta", type=float)
    p.add_argument("--sigma")
    p.add_argument("--lambda-min", dest="lambda_min", type=float)
    p.add_argument("--lambda-max", dest="lambda_max", type=float)
    p.add_argument("--lambda-count", dest="lambda_count", type=int)
    p.add_argument("--out")
    add_common(p)
    p.set_defaults(func=cmd_gcv_trace)

    p = sub.add_parser("transform", help="apply the log2(x + 1/2) transform to a matrix file")
    p.add_argument("input", nargs="?")
    p.add_argument("--format", choices=["dense_csv", "hmd_triplet"])
    p.add_argument("--missing-token", dest="missing_token")
    p.add_argument("--log2-half", dest="log2_half", action="store_const", const=True)
    p.add_argument("--out")
    add_common(p)
    p.set_defaults(func=cmd_transform)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
