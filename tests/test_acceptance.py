"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them all).
The mortality check needs an external data file and reports SKIPPED when the
file is absent.
"""

import os
import time

import numpy as np
import pytest

from robrsvd.decompose import (
    FitOptions,
    fit,
    fit_rank_one_robrsvd,
    fit_rank_one_rsvd,
    fit_rank_one_svd,
)
from robrsvd.cli import main
from robrsvd.dataio import MatrixFile, energy_percentages, load, log_transform
from robrsvd.matrices import ObservedMatrix
from robrsvd.penalties import TwoWayPenaltySpec, two_way_penalty, build_roughness_penalty
from robrsvd.robust import RobustLossSpec, squared_loss_spec
from robrsvd.simulate import (
    SimScenario,
    generate,
    mask_random,
    metric_l2,
    run_benchmark,
)
from robrsvd.splines import interpolate
from robrsvd.updates import ConditionalKernel, LambdaGrid
from conftest import dense_gcv_v, dense_hat_trace_v, dense_update_v, mirror, update_u_given_v, update_v_given_u


def report(num, name, ok, detail=""):
    print(f"\nACCEPTANCE {num} [{name}]: {'PASS' if ok else 'FAIL'}"
          + (f" ({detail})" if detail else ""))
    return ok


def aligned_gap(a, b):
    a = -a if a @ b < 0 else a
    return float(np.linalg.norm(a - b))


def test_criterion_1_baseline_reduction_chain():
    start = time.monotonic()
    rng = np.random.default_rng(2024)
    grid = LambdaGrid.log_default(1e-6, 1e2, 10)
    worst_pair = 0.0
    worst_svd = 0.0
    for _ in range(20):
        X = rng.standard_normal((10, 8))
        rob = fit_rank_one_robrsvd(X, loss=squared_loss_spec(), penalty_grid=grid)
        rs = fit_rank_one_rsvd(X, penalty_grid=grid)
        worst_pair = max(worst_pair, abs(rob.s - rs.s) / rs.s,
                         aligned_gap(rob.u, rs.u), aligned_gap(rob.v, rs.v))

        rs0 = fit_rank_one_rsvd(X, penalty_grid=LambdaGrid((1e-12,)))
        sv = fit_rank_one_svd(X)
        worst_svd = max(worst_svd, abs(rs0.s - sv.s) / sv.s,
                        aligned_gap(rs0.u, sv.u), aligned_gap(rs0.v, sv.v))
    elapsed = time.monotonic() - start
    ok = worst_pair < 1e-8 and worst_svd < 1e-6 and elapsed < 10.0
    assert report(1, "baseline reduction chain", ok,
                  f"inf-threshold gap {worst_pair:.2e}, tiny-lambda gap {worst_svd:.2e}, {elapsed:.1f}s")


def test_criterion_2_oracle_equivalence(small_suite):
    start = time.monotonic()
    worst = 0.0

    def rel(a, b):
        scale = max(1.0, float(np.max(np.abs(b))))
        return float(np.max(np.abs(np.asarray(a) - np.asarray(b)))) / scale

    for inst in small_suite:
        worst = max(worst, rel(
            update_v_given_u(inst.values, inst.u, inst.weights, inst.spec),
            dense_update_v(inst.values, inst.u, inst.weights, inst.spec)))
        xt, wt, sw = mirror(inst.values, inst.weights, inst.spec)
        worst = max(worst, rel(
            update_u_given_v(inst.values, inst.v, inst.weights, inst.spec),
            dense_update_v(xt, inst.v, wt, sw)))
        kernel_v = ConditionalKernel(inst.values, inst.u, inst.weights, inst.spec)
        kernel_u = ConditionalKernel.for_u(inst.values, inst.v, inst.weights, inst.spec)
        (got,), (got_tr,) = kernel_v.scores((inst.spec.lambda_v,))
        (got_u,), (got_utr,) = kernel_u.scores((inst.spec.lambda_u,))
        worst = max(worst, rel(got_tr, dense_hat_trace_v(inst.values, inst.u, inst.weights, inst.spec)))
        worst = max(worst, rel(got_utr, dense_hat_trace_v(xt, inst.v, wt, sw)))
        want, want_tr = dense_gcv_v(inst.values, inst.u, inst.weights, inst.spec)
        if np.isfinite(want):
            worst = max(worst, rel(got, want))
        worst = max(worst, rel(got_tr, want_tr))
        want_u, want_utr = dense_gcv_v(xt, inst.v, wt, sw)
        if np.isfinite(want_u):
            worst = max(worst, rel(got_u, want_u))
        worst = max(worst, rel(got_utr, want_utr))
    elapsed = time.monotonic() - start
    ok = worst < 1e-10 and elapsed < 30.0
    assert report(2, "oracle equivalence on small instances", ok,
                  f"worst relative gap {worst:.2e} over {len(small_suite)} cases, {elapsed:.1f}s")


def test_criterion_3_objective_monotonicity(small_suite):
    worst_violation = 0.0
    for k, inst in enumerate(small_suite):
        row_mean = inst.values.sum(axis=1, keepdims=True) / np.maximum(
            inst.mask.sum(axis=1, keepdims=True), 1)
        filled = np.where(inst.mask, inst.values, row_mean)
        lam = (0.0, 1e-3, 0.1)[k % 3]
        try:
            pair = fit_rank_one_robrsvd(
                ObservedMatrix(filled),
                loss=RobustLossSpec(theta=1.345, sigma=1.0),
                penalty_grid=LambdaGrid((lam,)),
                opts=FitOptions(tol=1e-13, max_iter=40),
            )
        except ValueError:
            continue  # degenerate scale on a constant-like instance
        hist = np.array([pair.history["initial_objective"]] + pair.history["half_objective"])
        scale = np.maximum(np.abs(hist[:-1]), 1e-9)
        worst_violation = max(worst_violation, float(np.max(np.diff(hist) / scale)))
    ok = worst_violation <= 1e-10
    assert report(3, "IRLS objective monotonicity (frozen lambdas)", ok,
                  f"worst relative increase {worst_violation:.2e}")


def test_criterion_4_simulation_ordering():
    start = time.monotonic()
    kinds = ("outlying_cells", "outlying_rows", "outlying_block", "diagonal")
    # The paper's 100x100 design: generate() injects fixed-size contamination, so
    # at 40x40 it becomes 12.5% outlying rows and a block that outweighs the signal.
    scenarios = [SimScenario(noise_variance=1.0, contamination=c) for c in kinds + ("none",)]
    replications = 20
    res = run_benchmark(scenarios, replications=replications, base_seed=0, threads=1)
    elapsed = time.monotonic() - start
    med = {(r["scenario"], r["method"], r["metric"]): r["median"] for r in res.summary}

    failures = [f"{f['scenario']}/{f['method']} replication {f['replication']}: {f['error']}"
                for f in res.failures]
    failures += [f"{r['scenario']}/{r['method']}/{r['metric']}: {r['replications']} replications"
                 for r in res.summary if r["replications"] != replications]
    for kind in kinds:
        for metric in ("l2_u", "l2_v", "s_abs_error"):
            rob = med[(kind, "robrsvd", metric)]
            rs = med[(kind, "rsvd", metric)]
            sv = med[(kind, "svd", metric)]
            if not (rob < rs and rob < sv):
                failures.append(f"{kind}/{metric}: rob={rob:.4g} rsvd={rs:.4g} svd={sv:.4g}")
    for metric in ("l2_u", "l2_v"):
        rob = med[("none", "robrsvd", metric)]
        rs = med[("none", "rsvd", metric)]
        if not rob <= 1.25 * rs:
            failures.append(f"none/{metric}: rob={rob:.4g} exceeds 1.25*rsvd={1.25 * rs:.4g}")
    if elapsed >= 600.0:
        failures.append(f"runtime {elapsed:.0f}s")

    ok = not failures
    assert report(4, "simulation ordering on the 100x100 design", ok,
                  f"{elapsed:.0f}s" if ok else "; ".join(failures))


def test_criterion_5_missing_value_recovery():
    # exact recovery through a 100-cell mask, no noise
    res = generate(SimScenario(grid_size=(40, 40), noise_variance=0.0,
                               contamination="none", seed=21))
    masked = mask_random(res, 100, seed=22)
    u0, v0 = res.truth.left[:, 0], res.truth.right[:, 0]
    tight = FitOptions(tol=1e-10)
    worst = 0.0
    for method in ("svd", "rsvd", "robrsvd"):
        decomp = fit(masked.data, method=method, rank=1,
                     penalty_grid=LambdaGrid((1e-12,)), opts=tight)
        pair = decomp.components[0]
        worst = max(worst, metric_l2(pair.u, u0), metric_l2(pair.v, v0), abs(pair.s - 773.0))
    exact_ok = worst < 1e-5

    # contaminated + masked: the robust fit is no worse than the nonrobust one
    scen = SimScenario(grid_size=(40, 40), noise_variance=0.2, contamination="outlying_cells")
    bench = run_benchmark([scen], methods=("rsvd", "robrsvd"), replications=10,
                          base_seed=11, threads=1, mask_count=100)
    med = {(r["method"], r["metric"]): r["median"] for r in bench.summary}
    order_ok = (med[("robrsvd", "l2_u")] <= med[("rsvd", "l2_u")]
                and med[("robrsvd", "l2_v")] <= med[("rsvd", "l2_v")])

    ok = exact_ok and order_ok
    assert report(5, "missing-value recovery", ok,
                  f"exact-path worst error {worst:.2e}; masked+outliers medians "
                  f"rob=({med[('robrsvd', 'l2_u')]:.4f},{med[('robrsvd', 'l2_v')]:.4f}) "
                  f"rsvd=({med[('rsvd', 'l2_u')]:.4f},{med[('rsvd', 'l2_v')]:.4f})")


def test_criterion_6_rank_two_subspace_recovery():
    scen = SimScenario(rank=2, grid_size=(40, 40), noise_variance=1.0,
                       contamination="outlying_rows")
    bench = run_benchmark([scen], methods=("svd", "robrsvd"), replications=10,
                          base_seed=33, threads=1)
    med = {(r["method"], r["metric"]): r["median"] for r in bench.summary}
    rob = med[("robrsvd", "principal_angle_left")]
    sv = med[("svd", "principal_angle_left")]
    ok = rob < sv
    assert report(6, "rank-two left-subspace recovery", ok,
                  f"median principal angle rob={rob:.2f} deg, svd={sv:.2f} deg")


def test_criterion_7_penalty_and_spline_consistency():
    rng = np.random.default_rng(7)
    m, n = 12, 9
    spec = TwoWayPenaltySpec(
        build_roughness_penalty(np.linspace(0, 1, m)),
        build_roughness_penalty(np.linspace(0, 1, n)),
        0.4, 1.7,
    )
    exact_failures = 0
    for _ in range(1000):
        u = rng.standard_normal(m)
        v = rng.standard_normal(n)
        c = float(2.0 ** rng.integers(-8, 9))
        if two_way_penalty(c * u, v / c, spec) != two_way_penalty(u, v, spec):
            exact_failures += 1
    # arbitrary positive scalings hold to roundoff
    rel_worst = 0.0
    for _ in range(200):
        u = rng.standard_normal(m)
        v = rng.standard_normal(n)
        c = float(rng.uniform(0.1, 10.0))
        a = two_way_penalty(c * u, v / c, spec)
        b = two_way_penalty(u, v, spec)
        rel_worst = max(rel_worst, abs(a - b) / abs(b))

    spline_worst = 0.0
    for _ in range(100):
        k = int(rng.integers(5, 25))
        grid = np.sort(rng.random(k)) + np.arange(k) * 0.02
        f = rng.standard_normal(k)
        omega = build_roughness_penalty(grid)
        quad = float(f @ omega @ f)
        rough = interpolate(f, grid).roughness()
        spline_worst = max(spline_worst, abs(rough - quad) / max(quad, 1e-12))

    ok = exact_failures == 0 and rel_worst < 1e-12 and spline_worst < 1e-8
    assert report(7, "penalty scale-invariance and spline consistency", ok,
                  f"exact failures {exact_failures}/1000, real-scale rel {rel_worst:.2e}, "
                  f"spline rel {spline_worst:.2e}")


MORTALITY_ENV = "ROBRSVD_MORTALITY_FILE"


def _find_mortality_file():
    candidates = [os.environ.get(MORTALITY_ENV)]
    here = os.path.dirname(__file__)
    for name in ("spain_mortality.csv", "spain_mortality.txt"):
        candidates.append(os.path.join(here, "..", "data", name))
    for cand in candidates:
        if cand and os.path.exists(cand):
            return cand
    return None


def test_criterion_8_mortality_pipeline():
    path = _find_mortality_file()
    if path is None:
        print(f"\nACCEPTANCE 8 [mortality pipeline]: SKIPPED "
              f"(no mortality data file; set {MORTALITY_ENV} to run)")
        pytest.skip("mortality data file not available")

    fmt = "hmd_triplet" if path.endswith(".txt") else "dense_csv"
    X = log_transform(load(MatrixFile(path, format=fmt)))
    assert X.row_grid[0] == 1908 and X.row_grid[-1] == 2007
    assert X.col_grid[-1] == 110

    filled = np.where(X.mask, X.values, fit(X, "svd").reconstruction())
    energy = energy_percentages(filled, 2)
    energy_ok = abs(energy[0] - 93.3) <= 0.7 and abs(energy[1] - 5.0) <= 0.7

    def first_left(method):
        decomp = fit(X, method=method, rank=1)
        u = decomp.components[0].u
        return u if u.sum() >= 0 else -u

    def outlier_year_deviation(u):
        years = X.row_grid.astype(int)
        # centered 7-year moving average
        pad = 3
        ma = np.convolve(u, np.ones(7) / 7.0, mode="same")
        pick = np.isin(years, (1918, 1936, 1937, 1938, 1939))
        inner = slice(pad, len(u) - pad)
        dev = np.abs(u - ma)
        return float(dev[pick & np.isin(np.arange(len(u)), np.arange(len(u))[inner])].sum())

    dev_rob = outlier_year_deviation(first_left("robrsvd"))
    dev_svd = outlier_year_deviation(first_left("svd"))
    robust_ok = dev_rob < dev_svd

    ok = energy_ok and robust_ok
    assert report(8, "mortality pipeline", ok,
                  f"energy {energy[0]:.1f}%/{energy[1]:.1f}%, "
                  f"outlier-year deviation rob={dev_rob:.4f} svd={dev_svd:.4f}")


def test_criterion_9_determinism(tmp_path):
    args = ["simulate", "--scenario", "none,outlying_cells", "--rows", "15", "--cols", "15",
            "--sigma2", "0.5", "--methods", "svd,robrsvd", "--replications", "3",
            "--seed", "99", "--lambda-count", "6"]
    blobs = []
    for name, threads in (("r1", "1"), ("r2", "1"), ("r4", "4")):
        out = tmp_path / name
        assert main(args + ["--threads", threads, "--out", str(out)]) == 0
        blobs.append((out / "summary.csv").read_bytes())
    ok = blobs[0] == blobs[1] == blobs[2]
    assert report(9, "simulation determinism across runs and threads", ok,
                  f"{len(blobs[0])} bytes")
