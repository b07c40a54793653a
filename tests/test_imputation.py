import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from robrsvd.decompose import (
    METHODS,
    FitOptions,
    fit,
    fit_rank_one_rsvd,
    fit_rank_one_svd,
    fit_start,
    huber_objective,
    rank_one_fit,
)
from robrsvd.matrices import ObservedMatrix
from robrsvd.penalties import TwoWayPenaltySpec, build_roughness_penalty
from robrsvd.robust import RobustLossSpec, estimate_scale_mad
from robrsvd.simulate import SimScenario, generate, mask_random
from robrsvd.updates import LambdaGrid
from conftest import imputation_oracle


def rank_one_surface(m=16, n=14, scale=40.0):
    y = np.linspace(0, 1, m)
    z = np.linspace(0, 1, n)
    u0 = np.exp(y)
    u0 /= np.linalg.norm(u0)
    v0 = np.cos(np.pi * z) + 2.0
    v0 /= np.linalg.norm(v0)
    return scale * np.outer(u0, v0), u0, v0


def random_mask(rng, m, n, frac):
    while True:
        mask = rng.random((m, n)) > frac
        if mask.any(axis=0).all() and mask.any(axis=1).all():
            return mask


def test_exact_rank_one_recovered_through_mask():
    rng = np.random.default_rng(90)
    values, u0, v0 = rank_one_surface()
    mask = random_mask(rng, *values.shape, 0.10)
    X = ObservedMatrix(np.where(mask, values, 0.0), mask)
    pair = fit_rank_one_rsvd(X, penalty_grid=LambdaGrid((1e-12,)))
    assert pair.converged
    u = pair.u if pair.u @ u0 > 0 else -pair.u
    v = pair.v if pair.v @ v0 > 0 else -pair.v
    assert np.linalg.norm(u - u0) < 1e-6
    assert np.linalg.norm(v - v0) < 1e-6
    assert pair.s == pytest.approx(40.0, abs=1e-5)
    # the fit at the missing cells equals the true surface
    assert np.max(np.abs(pair.reconstruction()[~mask] - values[~mask])) < 1e-5 * 40.0


def test_row_and_column_initialization_agree_at_convergence():
    rng = np.random.default_rng(91)
    values, u0, v0 = rank_one_surface()
    noisy = values + rng.normal(0, 0.1, values.shape)
    mask = random_mask(rng, *values.shape, 0.08)
    X = ObservedMatrix(np.where(mask, noisy, 0.0), mask)
    kwargs = dict(penalty_grid=LambdaGrid((1e-8,)), opts=FitOptions(tol=1e-10))
    direct = fit_rank_one_rsvd(X, **kwargs)
    u_d = direct.u if direct.u @ u0 > 0 else -direct.u
    # the loop reaches the direct fit from either start
    for start in ("row_mean", "col_mean"):
        pair, _ = imputation_oracle(X, "rsvd", start=start, tol=1e-9, **kwargs)
        u = pair.u if pair.u @ u0 > 0 else -pair.u
        assert np.linalg.norm(u - u_d) < 1e-4
        assert abs(pair.s - direct.s) < 1e-4 * direct.s


def test_observed_cells_never_altered():
    rng = np.random.default_rng(92)
    values, _, _ = rank_one_surface()
    noisy = values + rng.normal(0, 0.3, values.shape)
    mask = random_mask(rng, *values.shape, 0.15)
    X = ObservedMatrix(np.where(mask, noisy, 0.0), mask)
    before = X.values.copy()
    decomp = fit(X, "robrsvd", penalty_grid=LambdaGrid((1e-6,)))
    np.testing.assert_array_equal(X.values, before)
    np.testing.assert_allclose((decomp.reconstruction() + decomp.residual.values)[mask],
                               X.values[mask], rtol=0, atol=1e-12 * np.abs(X.values).max())


def test_objective_nonincreasing_across_rounds():
    # fixed lambda and a scale frozen after round one: each refit minimizes
    # the same filled-data objective, so the observed-cell objective can
    # only go down
    rng = np.random.default_rng(93)
    values, _, _ = rank_one_surface()
    noisy = values + rng.normal(0, 0.2, values.shape)
    noisy.flat[rng.choice(noisy.size, 6, replace=False)] += 25.0
    mask = random_mask(rng, *values.shape, 0.1)
    X = ObservedMatrix(np.where(mask, noisy, 0.0), mask)

    m, n = X.shape
    lam = 1e-4
    spec = TwoWayPenaltySpec(
        build_roughness_penalty(X.row_grid), build_roughness_penalty(X.col_grid), lam, lam
    )
    loss = RobustLossSpec(theta=1.345, sigma=1.0)

    filled = np.where(mask, X.values, X.values.sum(1, keepdims=True) / mask.sum(1, keepdims=True))
    objectives = []
    for _ in range(8):
        pair = fit(ObservedMatrix(filled), "robrsvd", 1, loss=loss,
                   penalty_grid=LambdaGrid((lam,))).components[0]
        objectives.append(
            huber_objective(X.values, pair.s, pair.u, pair.v, 1.345, 1.0, spec, mask=mask)
        )
        filled = np.where(mask, filled, pair.s * np.outer(pair.u, pair.v))
    diffs = np.diff(objectives)
    assert np.all(diffs <= 1e-9 * np.abs(objectives[:-1]))


def test_imputation_nonconvergence_is_reported():
    # two IRLS iterations leave the fit of a masked matrix short of convergence
    res = generate(SimScenario(grid_size=(40, 40), contamination="outlying_rows", seed=1))
    X = mask_random(res, 300, seed=1).data
    capped = FitOptions(max_iter=2)
    for method in METHODS:
        pair = fit(X, method, opts=capped).components[0]
        assert not pair.converged, method
        assert pair.iterations == 2, method


def test_empty_row_or_column_rejected():
    values = np.ones((4, 5))
    mask = np.ones((4, 5), dtype=bool)
    mask[:, 3] = False
    with pytest.raises(ValueError, match="column"):
        fit_rank_one_svd(ObservedMatrix(values, mask))


def test_start_scale_is_the_mad_of_the_observed_residuals():
    # the row-mean fill is not data: its residuals stay out of sigma
    X = mask_random(generate(SimScenario(rank=2, grid_size=(30, 25), contamination="outlying_rows", seed=2)),
                    60, seed=3).data
    s, u, v, sigma = fit_start(X, RobustLossSpec())
    assert sigma == estimate_scale_mad((X.values - s * np.outer(u, v))[X.mask])


def test_fit_routes_masked_matrices_through_imputation():
    rng = np.random.default_rng(94)
    values, u0, _ = rank_one_surface()
    mask = random_mask(rng, *values.shape, 0.1)
    X = ObservedMatrix(np.where(mask, values, 0.0), mask)
    decomp = fit(X, method="svd", rank=1)
    u = decomp.components[0].u
    u = u if u @ u0 > 0 else -u
    assert np.linalg.norm(u - u0) < 1e-5
    # residual stays masked where the input was masked
    assert not decomp.residual.mask[~mask].any()



@pytest.mark.parametrize("method", ["svd", "rsvd"])
def test_direct_fit_reaches_the_imputation_fixed_point(method):
    # zero weights at the missing cells and the fill-fit-refill loop are two
    # routes to one stationary point of the observed-cell objective
    rng = np.random.default_rng(95)
    values, _, _ = rank_one_surface()
    noisy = values + rng.normal(0, 0.5, values.shape)
    mask = random_mask(rng, *values.shape, 0.12)
    X = ObservedMatrix(np.where(mask, noisy, 0.0), mask)
    kwargs = {} if method == "svd" else dict(penalty_grid=LambdaGrid((1e-4,)))
    opts = FitOptions(tol=1e-15, max_iter=1000)
    direct = rank_one_fit(X, method, opts=opts, **kwargs)
    assert direct.converged
    oracle, _ = imputation_oracle(X, method, opts=opts, **kwargs)
    assert direct.s == pytest.approx(oracle.s, rel=1e-6)
    np.testing.assert_allclose(direct.u, oracle.u, rtol=0, atol=1e-5)
    np.testing.assert_allclose(direct.v, oracle.v, rtol=0, atol=1e-5)


def test_benchmark_gate_input_converges():
    # 24x24, 20 missing cells: the fill-fit-refill loop's lambda_u flipped
    # between two grid values every round here and never converged
    data_seed, mask_seed = (int(x) for x in np.random.SeedSequence([1, 0]).generate_state(2))
    sim = generate(SimScenario(rank=1, grid_size=(24, 24), noise_variance=1.0,
                               contamination="outlying_rows", seed=data_seed))
    X = mask_random(sim, 20, seed=mask_seed).data
    pair = fit(X).components[0]
    assert pair.converged
    assert pair.iterations < FitOptions().max_iter


@st.composite
def masked_inputs(draw):
    m, n = draw(st.integers(4, 8)), draw(st.integers(4, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = 10.0 * np.outer(rng.standard_normal(m), rng.standard_normal(n)) + rng.standard_normal((m, n))
    mask = np.ones((m, n), dtype=bool)
    mask.flat[rng.choice(m * n, draw(st.integers(1, m * n // 5)), replace=False)] = False
    assume(mask.sum(axis=0).min() >= 2 and mask.sum(axis=1).min() >= 2)
    return ObservedMatrix(np.where(mask, values, 0.0), mask)


@settings(max_examples=30, deadline=None)
@given(X=masked_inputs(), method=st.sampled_from(METHODS), rank=st.integers(1, 2))
def test_observed_cells_are_reconstruction_plus_residual(X, method, rank):
    decomp = fit(X, method, rank, penalty_grid=LambdaGrid.log_default(num=5))
    np.testing.assert_array_equal(decomp.residual.mask, X.mask)
    obs = X.mask
    gap = np.abs(decomp.reconstruction()[obs] + decomp.residual.values[obs] - X.values[obs]).max()
    assert gap <= 1e-12 * np.abs(X.values[obs]).max()
