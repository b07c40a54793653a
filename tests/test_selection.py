import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robrsvd.penalties import TwoWayPenaltySpec, build_roughness_penalty
from robrsvd.selection import GcvTrace, LambdaGrid, select_lambda
from robrsvd.updates import ConditionalKernel, DegenerateSystemError, update_u_given_v, update_v_given_u
from conftest import dense_gcv_v, dense_systems_v, mirror, random_psd


def spline_spec(m, n, lam_u=0.0, lam_v=0.0):
    return TwoWayPenaltySpec(
        build_roughness_penalty(np.linspace(0, 1, m)),
        build_roughness_penalty(np.linspace(0, 1, n)),
        lam_u,
        lam_v,
    )


def test_gcv_guard_returns_infinity_when_unpenalized():
    rng = np.random.default_rng(60)
    X = rng.standard_normal((5, 4))
    u = rng.standard_normal(5)
    w = np.full((5, 4), 2.0)
    assert ConditionalKernel(X, u, w, spline_spec(5, 4, 0.0, 0.0)).score(0.0)[0] == np.inf


def test_gcv_matches_dense_oracle():
    rng = np.random.default_rng(61)
    X = rng.standard_normal((4, 3))
    u = rng.standard_normal(4)
    w = rng.uniform(0.3, 2.0, (4, 3))
    spec = spline_spec(4, 3, 0.2, 0.7)
    got, got_tr = ConditionalKernel(X, u, w, spec).score(spec.lambda_v)
    want, want_tr = dense_gcv_v(X, u, w, spec)
    assert got == pytest.approx(want, rel=1e-10)
    assert got_tr == pytest.approx(want_tr, rel=1e-10)


def test_gcv_u_matches_dense_oracle():
    rng = np.random.default_rng(62)
    X = rng.standard_normal((5, 3))
    v = rng.standard_normal(3)
    w = rng.uniform(0.3, 2.0, (5, 3))
    spec = spline_spec(5, 3, 0.9, 0.1)
    got, got_tr = ConditionalKernel.for_u(X, v, w, spec).score(spec.lambda_u)
    xt, wt, sw = mirror(X, w, spec)
    want, want_tr = dense_gcv_v(xt, v, wt, sw)
    assert got == pytest.approx(want, rel=1e-10)
    assert got_tr == pytest.approx(want_tr, rel=1e-10)


def test_gcv_small_suite_oracle_equivalence(small_suite):
    for inst in small_suite:
        kernel = ConditionalKernel(inst.values, inst.u, inst.weights, inst.spec)
        got, got_tr = kernel.score(inst.spec.lambda_v)
        want, want_tr = dense_gcv_v(inst.values, inst.u, inst.weights, inst.spec)
        assert got_tr == pytest.approx(want_tr, rel=1e-10)
        if np.isinf(want):
            assert np.isinf(got)
        else:
            assert got == pytest.approx(want, rel=1e-10)


def test_gcv_zero_weight_column_error():
    rng = np.random.default_rng(63)
    X = rng.standard_normal((4, 3))
    u = rng.standard_normal(4)
    w = rng.uniform(0.5, 2.0, (4, 3))
    w[:, 2] = 0.0
    with pytest.raises(ValueError, match=r"\[2\]"):
        ConditionalKernel(X, u, w, spline_spec(4, 3, 0.0, 0.5))


def test_distance_to_unpenalized_update_grows_with_lambda():
    rng = np.random.default_rng(64)
    X = rng.standard_normal((6, 5))
    u = rng.standard_normal(6)
    w = rng.uniform(0.5, 2.0, (6, 5))
    spec0 = spline_spec(6, 5)
    d = (u * u) @ w
    v_star = (u @ (w * X)) / d
    dists = []
    for lam in np.logspace(-6, 4, 12):
        v_hat = update_v_given_u(X, u, w, spec0.with_lambdas(0.0, lam))
        dists.append(np.linalg.norm(v_hat - v_star))
    assert np.all(np.diff(dists) >= -1e-9)


def test_selected_lambda_invariant_under_u_rescaling():
    rng = np.random.default_rng(65)
    X = rng.standard_normal((7, 6)) * 2.0
    u = rng.standard_normal(7)
    w = rng.uniform(0.5, 2.0, (7, 6))
    spec0 = spline_spec(7, 6)
    grid = LambdaGrid.log_default(1e-6, 1e2, 12)

    def chooser(scale):
        scores, traces = ConditionalKernel(X, scale * u, w, spec0).scores(grid)
        lam, _ = select_lambda(grid, scores=scores, traces=traces)
        return lam

    assert chooser(1.0) == chooser(7.5)


NO_TRACES = np.full(3, np.nan)


def test_select_lambda_basic_and_ties():
    lam, trace = select_lambda(LambdaGrid((0.1, 1.0, 10.0)), scores=[3.0, 1.0, 2.0], traces=NO_TRACES)
    assert lam == 1.0
    assert trace.chosen.lam == 1.0
    assert sum(r.chosen for r in trace.records) == 1

    lam, _ = select_lambda(LambdaGrid((0.1, 1.0, 10.0)), scores=[1.0, 1.0, 5.0], traces=NO_TRACES)
    assert lam == 0.1  # ties break toward smaller lambda


def test_select_lambda_all_nonfinite_errors():
    with pytest.raises(ValueError, match="degenerate"):
        select_lambda(LambdaGrid((0.1, 1.0)), scores=[np.inf, np.inf], traces=[np.nan, np.nan])


def test_select_lambda_skips_nan_scores():
    lam, trace = select_lambda(LambdaGrid((0.1, 1.0, 10.0)), scores=[np.nan, 2.0, 1.0], traces=NO_TRACES)
    assert lam == 10.0
    assert [r.chosen for r in trace.records] == [False, False, True]
    assert np.isnan(trace.records[0].score)
    with pytest.raises(ValueError, match="degenerate"):
        select_lambda(LambdaGrid((0.1, 1.0, 10.0)), scores=[np.nan, np.inf, np.nan], traces=NO_TRACES)


def test_select_lambda_needs_one_score_and_trace_per_candidate():
    with pytest.raises(ValueError, match=r"per grid value \(3\)"):
        select_lambda(LambdaGrid((0.1, 1.0, 10.0)), scores=[1.0, 2.0], traces=[1.0, 2.0])
    with pytest.raises(TypeError):
        select_lambda(LambdaGrid((0.1, 1.0, 10.0)), [3.0, 1.0, 2.0], NO_TRACES)


def test_select_lambda_grid_argmin_near_continuous_argmin():
    # quadratic in log-lambda with its minimum at log10 = 0.3
    grid = LambdaGrid(tuple(np.logspace(-2, 2, 17)))  # quarter-decade spacing
    scores = (np.log10(grid.values) - 0.3) ** 2 + 1.0
    lam, _ = select_lambda(grid, scores=scores, traces=np.full(len(grid), np.nan))
    assert abs(np.log10(lam) - 0.3) <= 0.25 + 1e-12


def test_lambda_grid_validation():
    with pytest.raises(ValueError):
        LambdaGrid(())
    with pytest.raises(ValueError):
        LambdaGrid((1.0, 1.0))
    with pytest.raises(ValueError):
        LambdaGrid((-1.0, 1.0))
    with pytest.raises(ValueError):
        LambdaGrid((0.0, np.inf))
    grid = LambdaGrid.log_default()
    assert len(grid) == 20
    assert grid.values[0] == pytest.approx(1e-6)
    assert grid.values[-1] == pytest.approx(1e4)
    assert 0.0 not in grid.values


@pytest.mark.parametrize("lo, hi", [(0.0, 1e4), (-1.0, 1.0), (1.0, 0.5), (1e-6, np.inf)])
def test_log_default_rejects_bounds_before_logspace(lo, hi):
    # log10(0) and nan arithmetic in logspace used to warn before the grid's
    # own check rejected the result for a reason that did not name the bounds
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match=rf"0 < lo <= hi < inf, got lo={lo}, hi={hi}"):
            LambdaGrid.log_default(lo, hi)


@pytest.mark.parametrize("lo, hi, num", [(1e-3, 10.0, 1), (1e-3, 10.0, 0), (1.0, 1.0, 3), (1.0, 1.0, -1)])
def test_log_default_rejects_a_count_that_contradicts_the_bounds(lo, hi, num):
    # a single point used to drop hi silently; the other cases failed on
    # messages that named neither the bounds nor the count
    with pytest.raises(ValueError, match=rf"got lo={lo}, hi={hi}, num={num}"):
        LambdaGrid.log_default(lo, hi, num)
    assert LambdaGrid.log_default(0.5, 0.5, 1).values == (0.5,)


def test_trace_csv_schema(tmp_path):
    _, trace = select_lambda(LambdaGrid((0.1, 1.0)), scores=[3.0, 1.0], traces=[4.2, 4.2])
    path = tmp_path / "trace.csv"
    trace.write_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "lambda,gcv,hat_trace,chosen"
    assert len(lines) == 3
    assert lines[2].endswith(",1")  # lambda=1.0 chosen


def both_sides(inst):
    # (kernel, dense oracle arguments) of the v-update and of the mirrored u-update
    xt, wt, sw = mirror(inst.values, inst.weights, inst.spec)
    return (
        (ConditionalKernel(inst.values, inst.u, inst.weights, inst.spec),
         (inst.values, inst.u, inst.weights, inst.spec)),
        (ConditionalKernel.for_u(inst.values, inst.v, inst.weights, inst.spec),
         (xt, inst.v, wt, sw)),
    )


def assert_criterion_2_on_default_grid(small_suite, sweep):
    # Criterion 2's measure, 1e-10 absolute below magnitude 1 and relative
    # above, widened by the dense oracle's own first-order float64 rounding:
    # eps * cond(A) for the trace, amplified in the score where the oracle
    # subtracts nearly equal v_hat and b/d (small lambda) or trace and n.
    eps = np.finfo(float).eps
    grid = LambdaGrid.log_default()
    for inst in small_suite:
        for kernel, (X, u, w, spec) in both_sides(inst):
            n = X.shape[1]
            for lam, got, got_tr in zip(grid, *sweep(kernel, grid)):
                cand = spec.with_lambdas(lambda_v=lam)
                want, want_tr = dense_gcv_v(X, u, w, cand)
                design, w_diag, a, rhs = dense_systems_v(X, u, w, cand)
                rounding = 8.0 * eps * np.linalg.cond(a)
                assert abs(got_tr - want_tr) <= (1e-10 + rounding) * max(1.0, abs(want_tr))
                if np.isinf(want):
                    assert np.isinf(got)
                    continue
                v_hat = np.linalg.solve(a, rhs)
                v_star = rhs / np.diag(design.T @ w_diag @ design)
                amplify = 1.0 + np.linalg.norm(v_hat) / np.linalg.norm(v_hat - v_star) + n / (n - want_tr)
                assert abs(got - want) <= (1e-10 + rounding * amplify) * max(1.0, abs(want))


def test_one_kernel_scores_the_whole_grid(small_suite):
    def one_at_a_time(kernel, grid):
        pairs = [kernel.score(lam) for lam in grid]
        assert [kernel.trace(lam) for lam in grid] == [tr for _, tr in pairs]
        return zip(*pairs)

    assert_criterion_2_on_default_grid(small_suite, one_at_a_time)


def test_grid_scores_meet_criterion_2(small_suite):
    assert_criterion_2_on_default_grid(small_suite, lambda kernel, grid: kernel.scores(grid))


def test_grid_scores_are_the_one_candidate_scores(small_suite):
    # one K-by-n product against K one-row products: equal up to the order
    # in which BLAS sums each row
    grid = LambdaGrid.log_default()
    for inst in small_suite:
        for kernel, _ in both_sides(inst):
            scores, traces = kernel.scores(grid)
            assert scores.shape == traces.shape == (len(grid),)
            for lam, got, got_tr in zip(grid, scores, traces):
                want, want_tr = kernel.score(lam)
                assert got_tr == pytest.approx(kernel.trace(lam), rel=1e-14)
                assert got_tr == pytest.approx(want_tr, rel=1e-14)
                assert got == pytest.approx(want, rel=1e-14)


def test_selecting_half_step_solves_the_system_it_scored(small_suite):
    grid = LambdaGrid.log_default()
    for inst in small_suite[:12]:
        for kernel, (X, u, w, spec) in both_sides(inst):
            scores, traces = kernel.scores(grid)
            lam, _ = select_lambda(grid, scores=scores, traces=traces)
            np.testing.assert_array_equal(
                kernel.solve(lam), update_v_given_u(X, u, w, spec.with_lambdas(lambda_v=lam)))


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 8),
    seed=st.integers(0, 2**32 - 1),
    log_d=st.lists(st.floats(-3.0, 3.0), min_size=8, max_size=8),
    rank=st.integers(0, 8),
)
def test_kernel_trace_nonincreasing_and_within_n(n, seed, log_d, rank):
    rng = np.random.default_rng(seed)
    d = 10.0 ** np.array(log_d[:n])
    b = rng.standard_normal((min(rank, n), n))
    omega = b.T @ b  # PSD, possibly singular
    # one-row problem: with u = [1] the design diagonal is the weight row itself
    spec = TwoWayPenaltySpec(np.zeros((1, 1)), (omega + omega.T) / 2.0)
    kernel = ConditionalKernel(rng.standard_normal((1, n)), np.ones(1), d[None, :], spec)
    traces = np.array([kernel.trace(lam) for lam in np.logspace(-8, 8, 33)])
    assert np.all(traces > 0.0)
    assert np.all(traces <= n * (1.0 + 1e-12))  # n up to rounding
    assert np.all(np.diff(traces) <= 1e-12 * n)


def test_kernel_rejects_indefinite_penalty():
    rng = np.random.default_rng(67)
    X = rng.standard_normal((5, 4))
    u = rng.standard_normal(5)
    w = rng.uniform(0.5, 2.0, (5, 4))
    q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    omega_v = q @ np.diag([2.0, 1.0, 0.5, -0.1]) @ q.T
    spec = TwoWayPenaltySpec(random_psd(rng, 5), omega_v, 0.0, 1.0)
    with pytest.raises(DegenerateSystemError, match="not nonnegative definite"):
        ConditionalKernel(X, u, w, spec).trace(1.0)


def linear_u_in_null_space():
    # a linear u lies in the spline penalty's null space, where u'Omega_u u
    # is rounding; a -1e-10 shift (under 1e-15 of the largest entry) makes it
    # negative on any platform. With near-zero weights an unclipped
    # alpha - u'u would then make the system's diagonal negative
    grid = np.linspace(0.0, 1.0, 30)
    u = (1.0 + 2.0 * grid) / np.linalg.norm(1.0 + 2.0 * grid)
    omega_u = build_roughness_penalty(grid) - 1e-10 * np.outer(u, u)
    spec = TwoWayPenaltySpec(omega_u, build_roughness_penalty(np.linspace(0, 1, 6)), 1.0)
    assert u @ spec.omega_u @ u < 0.0
    return np.outer(u, np.arange(6.0)), u, np.full((30, 6), 1e-16), spec


def test_kernel_clips_rounding_level_negative_penalty_of_the_fixed_side():
    X, u, w, spec = linear_u_in_null_space()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        kernel = ConditionalKernel(X, u, w, spec)
        traces = [kernel.trace(lam) for lam in (0.0, 1.0, 1e4)]
        assert np.isfinite(kernel.score(1.0)[0])
    assert traces[0] == pytest.approx(6.0, rel=1e-12)
    assert 0.0 < traces[2] <= traces[1] <= traces[0]


def test_solve_clips_rounding_level_negative_penalty_of_the_fixed_side():
    # the solve forms the system the sweep scores: at lambda_v = 0 the
    # clipped penalty vanishes and both updates are the unpenalized b/d
    X, u, w, spec = linear_u_in_null_space()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        v = update_v_given_u(X, u, w, spec)
        u_mirror = update_u_given_v(X.T, u, w.T, spec.swapped())
    np.testing.assert_allclose(v, np.arange(6.0), rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(u_mirror, np.arange(6.0), rtol=1e-12, atol=1e-12)


def test_kernel_clips_rounding_level_negative_eigenvalues():
    rng = np.random.default_rng(68)
    X = rng.standard_normal((5, 4))
    u = rng.standard_normal(5)
    w = rng.uniform(0.5, 2.0, (5, 4))
    q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    omega_u = random_psd(rng, 5)

    def kernel(smallest):
        omega_v = q @ np.diag([3.0, 2.0, 1.0, smallest]) @ q.T
        return ConditionalKernel(X, u, w, TwoWayPenaltySpec(omega_u, omega_v))

    clipped, exact = kernel(-1e-13), kernel(0.0)
    for lam in (1.0, 1e4):
        assert clipped.trace(lam) == pytest.approx(exact.trace(lam), rel=1e-9)
    # unclipped, f = 1 / (1 + 2 alpha lam mu) would be negative here; clipped,
    # the trace settles on the penalty's one-dimensional null space
    assert clipped.trace(1e14) == pytest.approx(1.0, abs=1e-3)
    assert np.isfinite(clipped.score(1e14)[0])
