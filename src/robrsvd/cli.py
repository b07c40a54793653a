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
from .dataio import MatrixFile, format_number, load, log_transform, save, save_json
from .decompose import METHODS, FitOptions, fit, fit_start, spline_penalties
from .imputation import ImputationOptions, initial_fill
from .robust import DEFAULT_THETA, RobustLossSpec
from .selection import GcvTrace, LambdaGrid, select_lambda
from .penalties import TwoWayPenaltySpec
from .simulate import (
    SimScenario,
    run_benchmark,
    write_summary_csv,
    write_summary_json,
    CONTAMINATIONS,
)
from .splines import interpolate
from .updates import ConditionalKernel


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


def _options(args: argparse.Namespace) -> dict:
    """A command's resolved options, as its manifest records them."""
    return {k: v for k, v in vars(args).items() if k not in ("subcommand", "func", "config")}


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
        # output bytes can depend on BLAS threading; null where unset
        "blas_threads": {var: os.environ.get(var)
                         for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
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


def _write_vector_csv(path, grid, values, grid_name: str) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([grid_name, "value"])
        for g, val in zip(grid, values):
            writer.writerow([repr(float(g)), format_number(val)])


def cmd_decompose(cfg: dict) -> int:
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
            writer.writerow([format_number(pair.s), format_number(pair.lambda_u),
                             format_number(pair.lambda_v), pair.iterations, int(pair.converged)])
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
                writer.writerow([info["component"], format_number(info["s"]),
                                 format_number(info["lambda_u"]), format_number(info["lambda_v"]),
                                 info["iterations"], int(info["converged"])])

    write_manifest(out, "decompose", cfg)
    return 0


# ---------------------------------------------------------------------------
# simulate


def _split_list(text, cast=str) -> list:
    if isinstance(text, (int, float)):
        return [cast(text)]
    return [cast(part.strip()) for part in str(text).split(",") if part.strip()]


def cmd_simulate(cfg: dict) -> int:
    os.makedirs(cfg["out"], exist_ok=True)

    scenarios = [
        SimScenario(rank=cfg["rank"], grid_size=(cfg["rows"], cfg["cols"]),
                    noise_variance=var, contamination=kind)
        for kind in _split_list(cfg["scenario"])
        for var in _split_list(cfg["sigma2"], float)
    ]

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
    # failures are recorded only in the JSON summary, so it is written whenever there are any
    if cfg["output_format"] in ("json", "both") or result.failures:
        write_summary_json(result, os.path.join(cfg["out"], "summary.json"))
    write_manifest(cfg["out"], "simulate", cfg)
    if result.failures:
        print(f"{len(result.failures)} replication(s) failed; see summary.json", file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------
# gcv-trace


def cmd_gcv_trace(cfg: dict) -> int:
    """The GCV curve of decompose's first v-sweep, or of a u-sweep at its start.

    The sweep sees what the first IRLS step of ``decompose`` sees: the input
    with its missing cells filled as in the first imputation round, the fit's
    start (leading SVD triple and residual scale) and the loss weights of
    every cell. ``--trace u`` sweeps u at that same start, whereas decompose's
    first u-sweep comes after the v half-step.
    """
    if not cfg["input"]:
        raise ValueError("gcv-trace needs an input file")
    X = load(_matrix_file(cfg))
    # both smoothing parameters start at 0, so the other side is unpenalized
    spec = TwoWayPenaltySpec(*spline_penalties(X))
    values = initial_fill(X, ImputationOptions().init)
    loss = _loss(cfg)
    s, u, v, sigma = fit_start(values, loss)
    weights = loss.weights(values - s * np.outer(u, v), sigma)

    if cfg["trace"] == "v":
        kernel = ConditionalKernel(values, u, weights, spec)
    else:
        kernel = ConditionalKernel.for_u(values, v, weights, spec)
    grid = _lambda_grid(cfg)
    scores, traces = kernel.scores(grid)
    _, trace = select_lambda(grid, scores=scores, traces=traces)
    trace.write_csv(cfg["out"])
    write_manifest(None, "gcv-trace", cfg, filename=cfg["out"] + ".manifest.json")
    return 0


# ---------------------------------------------------------------------------
# transform


def cmd_transform(cfg: dict) -> int:
    if not cfg["input"]:
        raise ValueError("transform needs an input file")
    X = load(_matrix_file(cfg))
    if cfg["log2_half"]:
        X = log_transform(X)
    save(X, MatrixFile(cfg["out"], cfg["format"], cfg["missing_token"]))
    write_manifest(None, "transform", cfg, filename=cfg["out"] + ".manifest.json")
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> tuple[argparse.ArgumentParser, dict]:
    """The ``robrsvd`` parser and its subcommand parsers by name."""
    parser = argparse.ArgumentParser(
        prog="robrsvd",
        description="Robust regularized SVD for two-way functional data",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    # options shared by several subcommands, each declared once
    matrix = argparse.ArgumentParser(add_help=False)
    matrix.add_argument("input", nargs="?", help="matrix file")
    matrix.add_argument("--format", choices=["dense_csv", "hmd_triplet"], default="dense_csv")
    matrix.add_argument("--missing-token", default=".")
    grid = argparse.ArgumentParser(add_help=False)
    grid.add_argument("--theta", type=float, default=DEFAULT_THETA,
                      help="robustness threshold (inf for squared loss)")
    grid.add_argument("--lambda-min", type=float, default=1e-6)
    grid.add_argument("--lambda-max", type=float, default=1e4)
    grid.add_argument("--lambda-count", type=int, default=20)
    sigma = argparse.ArgumentParser(add_help=False)
    sigma.add_argument("--sigma", default="mad", help="'mad' or a positive number")
    config = argparse.ArgumentParser(add_help=False)
    config.add_argument("--config", help="key = value file; explicit flags take precedence")

    p = sub.add_parser("decompose", parents=[matrix, grid, sigma, config],
                       help="fit a sequential low-rank decomposition of a matrix file")
    p.add_argument("--method", choices=METHODS, default="robrsvd")
    p.add_argument("--rank", type=int, default=1)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--max-iter", type=int, default=100)
    p.add_argument("--lambda-freeze-after", type=int, default=5)
    p.add_argument("--log2-half", action="store_const", const=True, default=False,
                   help="apply log2(x + 1/2) before fitting")
    p.add_argument("--out", default="decompose_out")
    p.add_argument("--output-format", choices=["csv", "json"], default="csv")
    p.add_argument("--spline-points", type=int, default=200)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("simulate", parents=[grid, config], help="run the seeded simulation benchmark")
    p.add_argument("--scenario", default=",".join(CONTAMINATIONS),
                   help="comma list of " + ",".join(CONTAMINATIONS))
    p.add_argument("--rank", type=int, default=1)
    p.add_argument("--rows", type=int, default=100)
    p.add_argument("--cols", type=int, default=100)
    p.add_argument("--sigma2", default="1.0", help="comma list of noise variances")
    p.add_argument("--methods", default=",".join(METHODS), help="comma list of " + ",".join(METHODS))
    p.add_argument("--replications", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threads", type=int, default=1, help="worker processes on Linux, else in-process; same numbers")
    p.add_argument("--mask-count", type=int, default=0)
    p.add_argument("--out", default="simulate_out")
    p.add_argument("--output-format", choices=["csv", "json", "both"], default="csv")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("gcv-trace", parents=[matrix, grid, sigma, config],
                       help="GCV scores over a lambda grid for one conditional step")
    p.add_argument("--trace", choices=["u", "v"], default="v", help="which side's lambda to sweep")
    p.add_argument("--out", default="gcv_trace.csv")
    p.set_defaults(func=cmd_gcv_trace)

    p = sub.add_parser("transform", parents=[matrix, config],
                       help="apply the log2(x + 1/2) transform to a matrix file")
    p.add_argument("--log2-half", action="store_const", const=True, default=True)
    p.add_argument("--out", default="transformed.csv")
    p.set_defaults(func=cmd_transform)

    return parser, sub.choices


def main(argv=None) -> int:
    parser, commands = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            # file entries become the subcommand's defaults, so flags still win
            config = read_config_file(args.config)
            unknown = set(config) - set(_options(args))
            if unknown:
                raise ValueError(f"unknown config key(s): {sorted(unknown)}")
            command = commands[args.subcommand]
            # argparse checks choices on the command line only, not on defaults
            for action in command._actions:
                if action.dest in config:
                    try:
                        command._check_value(action, config[action.dest])
                    except argparse.ArgumentError as exc:
                        command.error(str(exc))
            command.set_defaults(**config)
            args = parser.parse_args(argv)
        return args.func(_options(args))
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
