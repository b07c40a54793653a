import numpy as np
import pytest

from robrsvd.matrices import ObservedMatrix, ResidualMatrix, residual


def test_residual_exact_fit_is_zero():
    rng = np.random.default_rng(0)
    u = rng.standard_normal(5)
    v = rng.standard_normal(4)
    X = ObservedMatrix(np.outer(u, v))
    r = residual(X, 1.0, u, v)
    np.testing.assert_allclose(r.residuals, 0.0, atol=1e-14)


def test_residual_zero_fit_returns_values():
    rng = np.random.default_rng(1)
    values = rng.standard_normal((4, 6))
    X = ObservedMatrix(values)
    r = residual(X, 0.0, np.ones(4), np.ones(6))
    np.testing.assert_array_equal(r.residuals, values)


def test_residual_masked_cell_excluded_matches_elementwise_loop():
    rng = np.random.default_rng(2)
    values = rng.standard_normal((3, 2))
    mask = np.ones((3, 2), dtype=bool)
    mask[1, 0] = False
    X = ObservedMatrix(values, mask)
    u = rng.standard_normal(3)
    v = rng.standard_normal(2)
    s = 1.7
    r = residual(X, s, u, v)

    # independent elementwise oracle
    for i in range(3):
        for j in range(2):
            if mask[i, j]:
                assert r.residuals[i, j] == pytest.approx(values[i, j] - s * u[i] * v[j], rel=1e-15)
            else:
                assert r.residuals[i, j] == 0.0
    assert not r.mask[1, 0]


def test_residual_reconstructs_observed_cells():
    rng = np.random.default_rng(3)
    values = rng.standard_normal((6, 5))
    mask = rng.random((6, 5)) > 0.2
    X = ObservedMatrix(values, mask)
    u = rng.standard_normal(6)
    v = rng.standard_normal(5)
    r = residual(X, 2.5, u, v)
    recon = r.residuals + 2.5 * np.outer(u, v)
    np.testing.assert_allclose(recon[mask], X.values[mask], rtol=0, atol=1e-12)


def test_residual_bilinear_in_scale():
    rng = np.random.default_rng(4)
    X = ObservedMatrix(rng.standard_normal((4, 4)))
    u = rng.standard_normal(4)
    v = rng.standard_normal(4)
    a = residual(X, 3.0 * 1.2, u, v)
    b = residual(X, 1.2, 3.0 * u, v)
    np.testing.assert_allclose(a.residuals, b.residuals, rtol=1e-12)


def test_residual_dimension_mismatch():
    X = ObservedMatrix(np.zeros((3, 2)))
    with pytest.raises(ValueError):
        residual(X, 1.0, np.zeros(2), np.zeros(2))
    with pytest.raises(ValueError):
        residual(X, np.inf, np.zeros(3), np.zeros(2))


def test_observed_matrix_validation():
    with pytest.raises(ValueError):
        ObservedMatrix(np.zeros((1, 5)))  # m >= 2
    with pytest.raises(ValueError):
        ObservedMatrix(np.zeros((3, 3)), row_grid=np.array([0.0, 0.0, 1.0]))
    with pytest.raises(ValueError):
        ObservedMatrix(np.zeros((3, 3)), col_grid=np.array([0.0, 1.0]))
    with pytest.raises(ValueError):
        ObservedMatrix(np.full((2, 2), np.nan))
    # nan allowed at masked cells, stored as placeholder 0
    vals = np.array([[1.0, np.nan], [2.0, 3.0]])
    X = ObservedMatrix(vals, np.array([[True, False], [True, True]]))
    assert X.values[0, 1] == 0.0
    assert X.n_observed == 3


def test_default_grids_equally_spaced():
    X = ObservedMatrix(np.zeros((3, 5)))
    np.testing.assert_allclose(X.row_grid, np.linspace(0, 1, 3))
    np.testing.assert_allclose(X.col_grid, np.linspace(0, 1, 5))


def test_arrays_are_immutable():
    X = ObservedMatrix(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        X.values[0, 0] = 1.0
    with pytest.raises(ValueError):
        X.mask[0, 0] = False


def test_residual_matrix_masked_cells_zeroed():
    r = ResidualMatrix(np.ones((2, 2)), np.array([[True, False], [True, True]]))
    assert r.residuals[0, 1] == 0.0
    assert list(r.observed()) == [1.0, 1.0, 1.0]
