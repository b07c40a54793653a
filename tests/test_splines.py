import numpy as np
import pytest
from scipy.interpolate import CubicSpline

from robrsvd.penalties import build_roughness_penalty
from robrsvd.splines import interpolate
from test_penalties import spline_curvature_energy


def test_linear_data_reproduced_everywhere():
    grid = np.array([0.0, 0.2, 0.55, 1.0])
    f = 3.0 - 2.0 * grid
    spline = interpolate(f, grid)
    t = np.linspace(-0.5, 1.5, 50)
    np.testing.assert_allclose(spline(t), 3.0 - 2.0 * t, atol=1e-12)
    assert spline.roughness() == pytest.approx(0.0, abs=1e-12)


def test_interpolates_knots_exactly():
    rng = np.random.default_rng(30)
    grid = np.sort(rng.random(9)) + np.arange(9) * 0.03
    f = rng.standard_normal(9)
    spline = interpolate(f, grid)
    np.testing.assert_allclose(spline(grid), f, atol=1e-12)
    assert spline(grid[3]) == pytest.approx(f[3], abs=1e-12)


def test_midpoint_of_linear_data_is_average():
    grid = np.array([0.0, 1.0, 2.0])
    f = np.array([1.0, 3.0, 5.0])
    spline = interpolate(f, grid)
    assert spline(0.5) == pytest.approx(2.0, abs=1e-12)


def test_roughness_equals_penalty_quadratic_form():
    rng = np.random.default_rng(31)
    grid = np.sort(rng.random(7)) + np.arange(7) * 0.02
    f = rng.standard_normal(7)
    spline = interpolate(f, grid)
    omega = build_roughness_penalty(grid)
    assert spline.roughness() == pytest.approx(f @ omega @ f, rel=1e-10)
    # and both agree with direct quadrature of the squared second derivative
    assert spline.roughness() == pytest.approx(spline_curvature_energy(f, grid), rel=1e-8)


def test_matches_scipy_natural_spline():
    rng = np.random.default_rng(32)
    grid = np.sort(rng.random(8)) + np.arange(8) * 0.05
    f = rng.standard_normal(8)
    ours = interpolate(f, grid)
    ref = CubicSpline(grid, f, bc_type="natural")
    t = np.linspace(grid[0], grid[-1], 200)
    np.testing.assert_allclose(ours(t), ref(t), atol=1e-10)


def test_cubic_polynomial_interior_accuracy():
    grid = np.linspace(0.0, 1.0, 20)
    f = grid**3
    spline = interpolate(f, grid)
    t = np.linspace(1.0 / 3.0, 2.0 / 3.0, 100)
    # natural boundary conditions distort the ends; the interior third is tight
    assert np.max(np.abs(spline(t) - t**3)) < 1e-3


def test_minimum_curvature_among_interpolants():
    rng = np.random.default_rng(33)
    grid = np.linspace(0.0, 1.0, 6)
    f = rng.standard_normal(6)
    spline = interpolate(f, grid)

    # competitor: spline plus a C^2 bump vanishing at all knots
    def bump(t):
        t = np.asarray(t, dtype=float)
        out = np.zeros_like(t)
        a, b = grid[2], grid[3]
        inside = (t >= a) & (t <= b)
        out[inside] = ((t[inside] - a) * (b - t[inside])) ** 3
        return out

    def competitor(t):
        return spline(t) + 1e4 * bump(t)

    h = 1e-5
    t = np.linspace(grid[0] + 2 * h, grid[-1] - 2 * h, 4001)
    second = (competitor(t + h) - 2.0 * competitor(t) + competitor(t - h)) / h**2
    energy = np.trapezoid(second**2, t)
    assert energy > spline.roughness() * (1 + 1e-6)
    np.testing.assert_allclose(competitor(grid), f, atol=1e-12)


def test_extrapolation_is_linear_and_flagged():
    rng = np.random.default_rng(34)
    grid = np.linspace(0.0, 1.0, 5)
    f = rng.standard_normal(5)
    spline = interpolate(f, grid)
    # beyond the ends the second derivative is zero: equal steps, equal increments
    left = spline(np.array([-0.2, -0.1, 0.0]))
    assert left[2] - left[1] == pytest.approx(left[1] - left[0], rel=1e-9)
    right = spline(np.array([1.0, 1.1, 1.2]))
    assert right[2] - right[1] == pytest.approx(right[1] - right[0], rel=1e-9)
    flags = spline.in_domain(np.array([-0.1, 0.5, 1.1]))
    assert list(flags) == [False, True, False]


def test_contract_violations():
    with pytest.raises(ValueError):
        interpolate(np.zeros(2), np.array([0.0, 1.0]))
    with pytest.raises(ValueError):
        interpolate(np.zeros(3), np.array([0.0, 0.0, 1.0]))  # duplicate knots


def test_export_csv(tmp_path):
    grid = np.linspace(0.0, 1.0, 4)
    spline = interpolate(np.array([0.0, 1.0, 0.5, 2.0]), grid)
    path = tmp_path / "curve.csv"
    spline.export_csv(path, num=50)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "t,value,extrapolated"
    assert len(lines) == 51
