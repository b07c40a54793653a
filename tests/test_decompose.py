import re
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from robrsvd.decompose import (
    FitOptions,
    fit,
    fit_rank_one_robrsvd,
    fit_rank_one_rsvd,
    fit_rank_one_svd,
    huber_objective,
    rank_one_fit,
    spline_penalties,
)
from robrsvd.matrices import ObservedMatrix
from robrsvd.penalties import TwoWayPenaltySpec, build_roughness_penalty
from robrsvd.robust import RobustLossSpec, squared_loss_spec
from robrsvd.simulate import SimScenario, generate, mask_random, metric_l2, metric_principal_angle
from robrsvd.updates import LambdaGrid


def smooth_rank_one(m=20, n=15, scale=50.0):
    y = np.linspace(0, 1, m)
    z = np.linspace(0, 1, n)
    u0 = 10.0**y
    u0 /= np.linalg.norm(u0)
    v0 = np.sin(2 * np.pi * z)
    v0 /= np.linalg.norm(v0)
    return scale * np.outer(u0, v0), u0, v0


def aligned_error(est, truth):
    est = -est if est @ truth < 0 else est
    return np.linalg.norm(est - truth)


def test_exact_rank_one_recovery_squared_loss_no_penalty():
    X, u0, v0 = smooth_rank_one()
    pair = fit_rank_one_robrsvd(X, loss=squared_loss_spec(), penalty_grid=LambdaGrid((0.0,)))
    assert aligned_error(pair.u, u0) < 1e-8
    assert aligned_error(pair.v, v0) < 1e-8
    assert pair.s == pytest.approx(50.0, abs=1e-8)
    assert pair.converged


def test_robust_beats_nonrobust_under_cell_outliers():
    rng = np.random.default_rng(70)
    X, u0, v0 = smooth_rank_one()
    X = X + rng.normal(0, 0.2, X.shape)
    flat = rng.choice(X.size, size=5, replace=False)
    X.flat[flat] = 10.0 * X.max()
    rob = fit_rank_one_robrsvd(X)
    rs = fit_rank_one_rsvd(X)
    assert aligned_error(rob.u, u0) < aligned_error(rs.u, u0)


@st.composite
def noisy_rank_one(draw):
    """3..12 by 3..12, complete or masked with an observed cell in every row and column."""
    m, n = draw(st.integers(3, 12)), draw(st.integers(3, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.standard_normal((m, n)) + 3.0 * np.outer(rng.standard_normal(m), rng.standard_normal(n))
    mask = np.ones((m, n), dtype=bool)
    if draw(st.booleans()):
        mask.flat[rng.choice(m * n, draw(st.integers(1, m * n // 4)), replace=False)] = False
        assume(mask.any(axis=0).all() and mask.any(axis=1).all())
    return ObservedMatrix(np.where(mask, values, 0.0), mask)


@settings(max_examples=30, deadline=None)
@given(X=noisy_rank_one(), sigma=st.one_of(st.none(), st.floats(0.1, 10.0)))
def test_infinite_threshold_equals_rsvd(X, sigma):
    rob = fit_rank_one_robrsvd(X, loss=RobustLossSpec(theta=np.inf, sigma=sigma))
    rs = fit_rank_one_rsvd(X)
    assert abs(rob.s - rs.s) < 1e-10 * rs.s
    np.testing.assert_allclose(rob.u, rs.u, atol=1e-10)
    np.testing.assert_allclose(rob.v, rs.v, atol=1e-10)


@settings(max_examples=30, deadline=None)
@given(X=noisy_rank_one())
def test_rsvd_with_vanishing_penalty_equals_svd(X):
    # complete input checks the IRLS loop against LAPACK; masked input checks
    # rsvd with spline penalties at lambda = 0 against svd's zero penalties
    rs = fit_rank_one_rsvd(X, penalty_grid=LambdaGrid((0.0,)))
    sv = fit_rank_one_svd(X)
    assert abs(rs.s - sv.s) < 1e-8 * sv.s
    assert aligned_error(rs.u, sv.u) < 1e-8
    assert aligned_error(rs.v, sv.v) < 1e-8


def test_rsvd_smooths_noisy_rank_one():
    rng = np.random.default_rng(73)
    X, u0, v0 = smooth_rank_one()
    Xn = X + rng.normal(0, 0.5, X.shape)
    rs = fit_rank_one_rsvd(Xn)
    sv = fit_rank_one_svd(Xn)
    omega_v = build_roughness_penalty(np.linspace(0, 1, X.shape[1]))
    assert rs.v @ omega_v @ rs.v <= sv.v @ omega_v @ sv.v


def test_all_constant_matrix_gives_constant_vectors():
    X = np.full((8, 6), 3.0)
    rs = fit_rank_one_rsvd(X)
    np.testing.assert_allclose(rs.u, rs.u[0], rtol=1e-8)
    np.testing.assert_allclose(rs.v, rs.v[0], rtol=1e-8)
    omega_u = build_roughness_penalty(np.linspace(0, 1, 8))
    assert rs.u @ omega_u @ rs.u == pytest.approx(0.0, abs=1e-10)


def test_svd_fitter_on_diagonal_matrix():
    pair = fit_rank_one_svd(np.diag([3.0, 1.0]))
    assert pair.s == pytest.approx(3.0, abs=1e-12)
    np.testing.assert_allclose(np.abs(pair.u), [1.0, 0.0], atol=1e-10)
    np.testing.assert_allclose(np.abs(pair.v), [1.0, 0.0], atol=1e-10)


def test_svd_fitter_matches_lapack_oracle():
    rng = np.random.default_rng(74)
    X = rng.standard_normal((8, 6))
    pair = fit_rank_one_svd(X)
    u_mat, s_vec, vt = np.linalg.svd(X)
    assert pair.s == pytest.approx(s_vec[0], rel=1e-12)
    assert aligned_error(pair.u, u_mat[:, 0]) < 1e-10
    assert aligned_error(pair.v, vt[0]) < 1e-10


def test_svd_fitter_exact_rank_one():
    rng = np.random.default_rng(75)
    u0 = rng.standard_normal(7)
    v0 = rng.standard_normal(5)
    pair = fit_rank_one_svd(np.outer(u0, v0))
    assert pair.s == pytest.approx(np.linalg.norm(u0) * np.linalg.norm(v0), rel=1e-12)


def random_matrix(m, n, seed):
    return np.random.default_rng(seed).standard_normal((m, n))


def leading_gap(X):
    s_vec = np.linalg.svd(X, compute_uv=False)
    return s_vec[0] > (1 + 1e-6) * s_vec[1]  # below that the vectors are not unique


@settings(max_examples=50, deadline=None)
@given(m=st.integers(2, 12), n=st.integers(2, 12), seed=st.integers(0, 2**32 - 1),
       c=st.floats(1e-3, 1e3))
def test_svd_fitter_scales_with_input(m, n, seed, c):
    X = random_matrix(m, n, seed)
    pair, scaled = fit_rank_one_svd(X), fit_rank_one_svd(c * X)
    assert scaled.s == pytest.approx(c * pair.s, rel=1e-12)
    if leading_gap(X):
        np.testing.assert_allclose(scaled.u, pair.u, atol=1e-8)
        np.testing.assert_allclose(scaled.v, pair.v, atol=1e-8)


@settings(max_examples=50, deadline=None)
@given(m=st.integers(2, 12), n=st.integers(2, 12), seed=st.integers(0, 2**32 - 1))
def test_svd_fitter_transpose_swaps_vectors(m, n, seed):
    X = random_matrix(m, n, seed)
    pair, flipped = fit_rank_one_svd(X), fit_rank_one_svd(X.T)
    assert flipped.s == pytest.approx(pair.s, rel=1e-12)
    if leading_gap(X):
        sign = np.sign(flipped.u @ pair.v)  # the sign fix acts on v, which becomes u
        np.testing.assert_allclose(flipped.u, sign * pair.v, atol=1e-8)
        np.testing.assert_allclose(flipped.v, sign * pair.u, atol=1e-8)


@pytest.mark.parametrize("contamination", ["outlying_rows", "outlying_cells", "none"])
def test_rsvd_transpose_swaps_vectors_and_lambdas(contamination):
    # the loop updates v first, so the transposed fit takes its steps in the
    # other order and agrees only to the convergence tolerance; a tighter tol
    # than 1e-8 runs some of these fits to max_iter
    opts = FitOptions(tol=1e-8)
    for seed in range(6):
        X = generate(SimScenario(grid_size=(30, 25), contamination=contamination, seed=seed)).data
        XT = ObservedMatrix(X.values.T, X.mask.T, X.col_grid, X.row_grid)
        pair, flipped = fit(X, "rsvd", opts=opts).components[0], fit(XT, "rsvd", opts=opts).components[0]
        assert (flipped.lambda_u, flipped.lambda_v) == (pair.lambda_v, pair.lambda_u)
        assert flipped.s == pytest.approx(pair.s, rel=1e-6)
        sign = np.sign(flipped.u @ pair.v)
        np.testing.assert_allclose(flipped.u, sign * pair.v, rtol=0, atol=2e-5)
        np.testing.assert_allclose(flipped.v, sign * pair.u, rtol=0, atol=2e-5)


@given(m=st.integers(2, 12), n=st.integers(2, 12))
def test_svd_fitter_on_zero_matrix(m, n):
    pair = fit_rank_one_svd(np.zeros((m, n)))
    assert pair.s == 0.0
    assert np.linalg.norm(pair.u) == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.norm(pair.v) == pytest.approx(1.0, abs=1e-12)
    assert pair.converged


@settings(max_examples=20, deadline=None, derandomize=True)
@given(seed=st.integers(0, 11), c=st.sampled_from([1e-3, 0.37, 7.0, 1e3]))
def test_robrsvd_scales_with_input(seed, c):
    # sigma scales with X and GCV is scale-free, so the whole loop is equivariant
    X = generate(SimScenario(grid_size=(30, 25), contamination="outlying_rows", seed=seed)).data.values
    pair, scaled = fit_rank_one_robrsvd(X), fit_rank_one_robrsvd(c * X)
    assert scaled.s == pytest.approx(c * pair.s, rel=1e-8)
    np.testing.assert_allclose(scaled.u, pair.u, atol=1e-8)
    np.testing.assert_allclose(scaled.v, pair.v, atol=1e-8)
    assert (scaled.lambda_u, scaled.lambda_v) == (pair.lambda_u, pair.lambda_v)
    assert scaled.iterations == pair.iterations


def test_unit_norms_and_sign_convention():
    rng = np.random.default_rng(76)
    X = rng.standard_normal((9, 7))
    for pair in (fit_rank_one_svd(X), fit_rank_one_rsvd(X), fit_rank_one_robrsvd(X)):
        assert abs(np.linalg.norm(pair.u) - 1.0) < 1e-12
        assert abs(np.linalg.norm(pair.v) - 1.0) < 1e-12
        assert pair.s >= 0
        assert pair.v[np.argmax(np.abs(pair.v))] > 0


def test_fit_rank_two_orthogonal_exact():
    rng = np.random.default_rng(77)
    a = rng.standard_normal(10)
    a /= np.linalg.norm(a)
    c = rng.standard_normal(10)
    c -= (c @ a) * a
    c /= np.linalg.norm(c)
    b = rng.standard_normal(8)
    b /= np.linalg.norm(b)
    d = rng.standard_normal(8)
    d -= (d @ b) * b
    d /= np.linalg.norm(d)
    X = 5.0 * np.outer(a, b) + 2.0 * np.outer(c, d)
    decomp = fit(X, method="svd", rank=2)
    np.testing.assert_allclose(decomp.singular_values, [5.0, 2.0], rtol=1e-10)
    assert aligned_error(decomp.components[0].u, a) < 1e-8
    assert aligned_error(decomp.components[1].u, c) < 1e-8


def test_fit_full_rank_leaves_no_residual():
    rng = np.random.default_rng(78)
    X = rng.standard_normal((6, 5))
    decomp = fit(X, method="svd", rank=5)
    assert np.linalg.norm(decomp.residual.values) < 1e-8 * np.linalg.norm(X)


def test_deflation_matches_joint_svd_with_gaps():
    rng = np.random.default_rng(79)
    u_mat, _ = np.linalg.qr(rng.standard_normal((9, 4)))
    v_mat, _ = np.linalg.qr(rng.standard_normal((7, 4)))
    svals = np.array([10.0, 6.0, 3.0, 1.0])  # relative gaps well above 10%
    X = (u_mat * svals) @ v_mat.T
    decomp = fit(X, method="svd", rank=4)
    np.testing.assert_allclose(decomp.singular_values, svals, rtol=1e-9)
    for k in range(4):
        assert aligned_error(decomp.components[k].u, u_mat[:, k]) < 1e-7
        assert aligned_error(decomp.components[k].v, v_mat[:, k]) < 1e-7


def test_rank_two_contaminated_subspace_recovery():
    scen = SimScenario(rank=2, grid_size=(30, 30), noise_variance=1.0,
                       contamination="outlying_rows", seed=5)
    res = generate(scen)
    rob = fit(res.data, method="robrsvd", rank=2)
    sv = fit(res.data, method="svd", rank=2)
    ang_rob = metric_principal_angle(rob.left_vectors(), res.truth.left)
    ang_svd = metric_principal_angle(sv.left_vectors(), res.truth.left)
    assert ang_rob < ang_svd


def test_objective_monotone_per_half_step_with_fixed_lambda():
    rng = np.random.default_rng(80)
    X, _, _ = smooth_rank_one()
    X = X + rng.normal(0, 0.3, X.shape)
    X.flat[rng.choice(X.size, 4, replace=False)] += 30.0
    for lam in (0.0, 1e-3):
        pair = fit_rank_one_robrsvd(
            X, penalty_grid=LambdaGrid((lam,)), opts=FitOptions(tol=1e-12, max_iter=50)
        )
        hist = np.array([pair.history["initial_objective"]] + pair.history["half_objective"])
        assert np.all(np.diff(hist) <= 1e-10 * np.abs(hist[:-1]) + 1e-12)


def test_renormalization_neutrality():
    # scaling the current iterate (u, v) -> (c u, v / c) changes nothing the
    # engine can observe: the objective and the next normalized iterate agree
    rng = np.random.default_rng(81)
    X, _, _ = smooth_rank_one(10, 8)
    spec = TwoWayPenaltySpec(
        build_roughness_penalty(np.linspace(0, 1, 10)),
        build_roughness_penalty(np.linspace(0, 1, 8)),
        0.2, 0.8,
    )
    u = rng.standard_normal(10)
    v = rng.standard_normal(8)
    c = 3.7
    a = huber_objective(X, 1.0, u, v, 1.345, 1.0, spec)
    b = huber_objective(X, 1.0, c * u, v / c, 1.345, 1.0, spec)
    assert a == pytest.approx(b, rel=1e-12)


def test_zero_matrix_exits_at_zero_s_or_names_the_degenerate_scale():
    # rsvd: the squared loss needs no scale (sigma 1.0), and the first
    # half-step's zero solution ends the fit
    pair = fit_rank_one_rsvd(np.zeros((6, 5)))
    assert pair.s == 0.0
    assert pair.converged
    assert pair.iterations == 1
    assert pair.history["sigma"] == 1.0
    # robrsvd: Huber weights need a residual scale, and all-zero residuals have none
    with pytest.raises(ValueError, match=re.escape("degenerate residuals (all zero)")):
        fit_rank_one_robrsvd(np.zeros((6, 5)))


@pytest.mark.parametrize("fitter", [fit_rank_one_svd, fit_rank_one_rsvd])
def test_masked_zero_matrix_exits_at_zero_s(fitter):
    # LAPACK's leading vectors of the zero fill are e1, which weights only
    # row 0, whose column-0 cell is missing; constant start vectors weight all
    mask = np.ones((6, 5), dtype=bool)
    mask[0, 0] = False
    pair = fitter(ObservedMatrix(np.zeros((6, 5)), mask))
    assert pair.s == 0.0
    assert pair.converged
    assert pair.iterations == 1


@pytest.mark.parametrize("fitter, missing", [
    (fit_rank_one_rsvd, []), (fit_rank_one_rsvd, [0]), (fit_rank_one_svd, [0]), (fit_rank_one_svd, [0, 6, 12, 18, 24]),
], ids=["rsvd-complete", "rsvd-masked", "svd-masked", "svd-masked-diagonal"])
def test_exact_rank_one_input_converges_at_the_rounding_floor(fitter, missing):
    # the dense penalty rounds near 0, so the objective of an exact rsvd fit
    # cycles at ~1e-16, where a test relative to the objective alone never
    # passes; a floor on its falls would stop svd's linear convergence early
    X = np.outer(np.arange(1, 7.0), np.arange(1, 6.0))
    mask = np.ones(X.shape, dtype=bool)
    mask.flat[missing] = False
    pair = fitter(ObservedMatrix(X, mask))
    assert pair.converged
    np.testing.assert_allclose(pair.reconstruction()[mask], X[mask], rtol=0, atol=1e-10 * np.abs(X).max())


@pytest.mark.parametrize("seed", range(6))
def test_final_objective_is_the_public_objective_at_the_returned_fit(seed):
    # the loop's fused evaluation (one residual per half-step) against the
    # public formula, bit for bit
    res = generate(SimScenario(grid_size=(30, 25), contamination="outlying_rows", seed=seed))
    X, masked = res.data, mask_random(res, 60, seed=seed).data
    zero = TwoWayPenaltySpec(np.zeros((30, 30)), np.zeros((25, 25)))
    cases = [(X, "rsvd"), (X, "robrsvd"), (masked, "rsvd"), (masked, "robrsvd"), (masked, "svd")]
    for data, method in cases:
        pair = rank_one_fit(data, method)
        spec = zero if method == "svd" else spline_penalties(data)
        want = huber_objective(data.values, pair.s, pair.u, pair.v, pair.history["theta"], pair.history["sigma"],
                               spec.with_lambdas(pair.lambda_u, pair.lambda_v), data.mask)
        assert pair.final_objective == want, method


def test_nonconvergence_reported():
    rng = np.random.default_rng(82)
    X = rng.standard_normal((15, 12)) * 10
    pair = fit_rank_one_robrsvd(X, opts=FitOptions(tol=1e-16, max_iter=2))
    assert not pair.converged
    assert pair.iterations == 2


@pytest.mark.parametrize("field, value", [
    ("tol", -1e-3), ("tol", np.nan), ("max_iter", 0), ("max_iter", -1),
    ("lambda_freeze_after", 0), ("lambda_freeze_after", -3),
])
def test_fit_options_out_of_range_named(field, value):
    with pytest.raises(ValueError, match=f"{field} must .*got {value}"):
        FitOptions(**{field: value})


def test_fit_options_edge_values_accepted():
    FitOptions(tol=0.0, max_iter=1, lambda_freeze_after=1)
    FitOptions(lambda_freeze_after=None)


def test_given_sigma_is_used():
    X = generate(SimScenario(grid_size=(30, 25), contamination="outlying_rows", seed=4)).data
    pair = fit(X, loss=RobustLossSpec(sigma=2.5)).components[0]
    assert pair.history["sigma"] == 2.5


def test_masked_input_rejected_by_rank_one_fitters():
    # masked input is fitted on its observed cells, but a row or column
    # with none of them has nothing to fit
    values = np.ones((4, 4))
    mask = np.ones((4, 4), dtype=bool)
    mask[:, 1] = False
    X = ObservedMatrix(values, mask)
    for fitter in (fit_rank_one_svd, fit_rank_one_rsvd, fit_rank_one_robrsvd):
        with pytest.raises(ValueError, match=r"empty rows \[\], empty columns \[1\]"):
            fitter(X)


def test_spline_penalty_needs_three_rows_and_columns():
    X = np.array([[1.0, 2.0], [3.0, 4.0]])
    for method in ("robrsvd", "rsvd"):
        with pytest.raises(ValueError, match="at least 3 rows and 3 columns, got 2x2"):
            fit(X, method=method)
    s = fit(X, method="svd").components[0].s
    assert s == pytest.approx(np.linalg.svd(X, compute_uv=False)[0], rel=1e-14)


@pytest.mark.parametrize("X", [
    np.outer([1.0, 2.0, 3.0], [1.0, 1.0, 2.0]),
    generate(SimScenario(grid_size=(30, 30), contamination="none", seed=1)).truth.signal,
], ids=["outer_3x3", "signal_30x30"])
def test_noise_free_input_names_the_rounding_level_scale(X):
    # the MAD scale of rounding-level residuals is ~1e-16 max|x|: Huber weights
    # built on it are meaningless, so the robust fit refuses with a reason
    svd_s = np.linalg.svd(X, compute_uv=False)[0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="rounding level of the data"):
            fit_rank_one_robrsvd(X)
        with pytest.raises(RuntimeError, match="component 1 failed: residual scale"):
            fit(X, method="robrsvd")
        assert fit(X, method="svd").components[0].s == pytest.approx(svd_s, rel=1e-12)
        rsvd = fit(X, method="rsvd").components[0]
    assert rsvd.converged
    assert rsvd.s == pytest.approx(svd_s, rel=0.02)


def test_fit_validates_rank_and_method():
    X = np.ones((4, 4))
    with pytest.raises(ValueError):
        fit(X, rank=0)
    with pytest.raises(ValueError):
        fit(X, rank=5)
    with pytest.raises(ValueError):
        fit(X, method="qr")


def test_component_error_carries_index():
    values = np.ones((4, 4))
    mask = np.ones((4, 4), dtype=bool)
    mask[2, :] = False  # empty row: imputation cannot start
    X = ObservedMatrix(values, mask)
    with pytest.raises(RuntimeError, match="component 1"):
        fit(X, method="svd", rank=1)


def test_paper_scale_row_contamination_ordering():
    # at the native 100x100 scale the robust fit beats plain SVD on both sides
    scen = SimScenario(grid_size=(100, 100), noise_variance=1.0,
                       contamination="outlying_rows", seed=3)
    res = generate(scen)
    rob = fit_rank_one_robrsvd(res.data)
    sv = fit_rank_one_svd(res.data)
    assert metric_l2(rob.u, res.truth.left[:, 0]) < metric_l2(sv.u, res.truth.left[:, 0])
    assert metric_l2(rob.v, res.truth.right[:, 0]) < metric_l2(sv.v, res.truth.right[:, 0])
