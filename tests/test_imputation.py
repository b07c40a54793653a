import numpy as np
import pytest

from robrsvd.decompose import FitOptions, fit, fit_rank_one_rsvd, huber_objective
from robrsvd.imputation import ImputationOptions, fit_with_missing
from robrsvd.matrices import ObservedMatrix
from robrsvd.penalties import TwoWayPenaltySpec, build_roughness_penalty
from robrsvd.robust import RobustLossSpec
from robrsvd.selection import LambdaGrid
from robrsvd.simulate import SimScenario, generate, mask_random


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


def test_complete_matrix_goes_straight_through():
    X, _, _ = rank_one_surface()
    direct = fit_rank_one_rsvd(X, penalty_grid=LambdaGrid((1e-10,)))
    pair, state = fit_with_missing(ObservedMatrix(X), "rsvd", penalty_grid=LambdaGrid((1e-10,)))
    assert state.rounds == 0
    assert state.last_change == 0.0
    assert pair.s == direct.s
    np.testing.assert_array_equal(pair.u, direct.u)


def test_exact_rank_one_recovered_through_mask():
    rng = np.random.default_rng(90)
    values, u0, v0 = rank_one_surface()
    mask = random_mask(rng, *values.shape, 0.10)
    X = ObservedMatrix(np.where(mask, values, 0.0), mask)
    pair, state = fit_with_missing(X, "rsvd", penalty_grid=LambdaGrid((1e-12,)))
    assert state.converged
    u = pair.u if pair.u @ u0 > 0 else -pair.u
    v = pair.v if pair.v @ v0 > 0 else -pair.v
    assert np.linalg.norm(u - u0) < 1e-6
    assert np.linalg.norm(v - v0) < 1e-6
    assert pair.s == pytest.approx(40.0, abs=1e-5)
    # imputed cells equal the true surface
    assert np.max(np.abs(state.filled[~mask] - values[~mask])) < 1e-5 * 40.0


def test_row_and_column_initialization_agree_at_convergence():
    rng = np.random.default_rng(91)
    values, u0, v0 = rank_one_surface()
    noisy = values + rng.normal(0, 0.1, values.shape)
    mask = random_mask(rng, *values.shape, 0.08)
    X = ObservedMatrix(np.where(mask, noisy, 0.0), mask)
    kwargs = dict(penalty_grid=LambdaGrid((1e-8,)), opts=FitOptions(tol=1e-10))
    pair_r, _ = fit_with_missing(X, "rsvd", imputation=ImputationOptions(init="row_mean", tol=1e-9), **kwargs)
    pair_c, _ = fit_with_missing(X, "rsvd", imputation=ImputationOptions(init="col_mean", tol=1e-9), **kwargs)
    u_r = pair_r.u if pair_r.u @ u0 > 0 else -pair_r.u
    u_c = pair_c.u if pair_c.u @ u0 > 0 else -pair_c.u
    assert np.linalg.norm(u_r - u_c) < 1e-4
    assert abs(pair_r.s - pair_c.s) < 1e-4 * pair_r.s


def test_observed_cells_never_altered():
    rng = np.random.default_rng(92)
    values, _, _ = rank_one_surface()
    noisy = values + rng.normal(0, 0.3, values.shape)
    mask = random_mask(rng, *values.shape, 0.15)
    X = ObservedMatrix(np.where(mask, noisy, 0.0), mask)
    _, state = fit_with_missing(X, "robrsvd", penalty_grid=LambdaGrid((1e-6,)))
    np.testing.assert_array_equal(state.filled[mask], X.values[mask])


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
    loss = RobustLossSpec(theta=1.345, sigma=1.0, sigma_source="fixed")

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
    # two rounds leave the imputed cells moving by several units
    res = generate(SimScenario(grid_size=(40, 40), contamination="outlying_rows", seed=1))
    X = mask_random(res, 300, seed=1).data
    capped = ImputationOptions(max_rounds=2)
    pair = fit(X, imputation=capped).components[0]
    assert not pair.converged
    assert pair.history["imputation"]["rounds"] == 2
    assert not pair.history["imputation"]["converged"]

    pair, state = fit_with_missing(X, "robrsvd", imputation=capped)
    assert not pair.converged and not state.converged
    assert pair.history["imputation"] == {
        "rounds": state.rounds, "last_change": state.last_change, "converged": False}
    assert state.last_change > capped.tol


def test_empty_row_or_column_rejected():
    values = np.ones((4, 5))
    mask = np.ones((4, 5), dtype=bool)
    mask[:, 3] = False
    with pytest.raises(ValueError, match="column"):
        fit_with_missing(ObservedMatrix(values, mask), "svd")


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


def test_imputation_options_validation():
    with pytest.raises(ValueError):
        ImputationOptions(init="diagonal_mean")
    with pytest.raises(ValueError):
        ImputationOptions(tol=0.0)
