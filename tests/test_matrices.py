import numpy as np
import pytest

from robrsvd.decompose import fit
from robrsvd.matrices import ObservedMatrix


def test_residual_exact_fit_is_zero():
    rng = np.random.default_rng(0)
    u = rng.standard_normal(5)
    v = rng.standard_normal(4)
    X = ObservedMatrix(np.outer(u, v))
    r = fit(X, "svd").residual
    np.testing.assert_allclose(r.values, 0.0, atol=1e-14)


def test_residual_masked_cell_excluded_matches_elementwise_loop():
    rng = np.random.default_rng(2)
    values = rng.standard_normal((3, 2))
    mask = np.ones((3, 2), dtype=bool)
    mask[1, 0] = False
    X = ObservedMatrix(values, mask)
    decomp = fit(X, "svd")
    r, pair = decomp.residual, decomp.components[0]
    s, u, v = pair.s, pair.u, pair.v

    # independent elementwise oracle
    for i in range(3):
        for j in range(2):
            if mask[i, j]:
                assert r.values[i, j] == pytest.approx(values[i, j] - s * u[i] * v[j], rel=1e-15)
            else:
                assert r.values[i, j] == 0.0
    assert not r.mask[1, 0]


def test_residual_reconstructs_observed_cells():
    rng = np.random.default_rng(3)
    values = rng.standard_normal((6, 5))
    mask = rng.random((6, 5)) > 0.2
    X = ObservedMatrix(values, mask)
    decomp = fit(X, "svd", rank=2)
    recon = decomp.residual.values + decomp.reconstruction()
    np.testing.assert_allclose(recon[mask], X.values[mask], rtol=0, atol=1e-12)


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
    assert int(X.mask.sum()) == 3


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
    # a decomposition's residual is an ObservedMatrix on the input's mask and grids
    mask = np.array([[True, False, True], [True, True, True], [True, True, False]])
    X = ObservedMatrix(np.arange(1.0, 10.0).reshape(3, 3), mask, [1908.0, 1909.0, 1911.0], [0.0, 5.0, 10.0])
    r = fit(X, "svd").residual
    assert isinstance(r, ObservedMatrix)
    assert r.values[0, 1] == 0.0 and r.values[2, 2] == 0.0
    np.testing.assert_array_equal(r.mask, mask)
    np.testing.assert_array_equal(r.row_grid, X.row_grid)
    np.testing.assert_array_equal(r.col_grid, X.col_grid)
