import numpy as np
import pytest
from scipy.integrate import fixed_quad
from scipy.interpolate import CubicSpline

from robrsvd.penalties import (
    TwoWayPenaltySpec,
    build_roughness_penalty,
    two_way_penalty,
)
from robrsvd.updates import ConditionalKernel
from conftest import dense_conditional_penalty_v, random_psd


def spline_curvature_energy(values, grid):
    """Independent oracle: int (g'')^2 for the natural spline, by quadrature."""
    cs = CubicSpline(grid, values, bc_type="natural")
    d2 = cs.derivative(2)
    total = 0.0
    for a, b in zip(grid[:-1], grid[1:]):
        # (g'')^2 is piecewise quadratic, so order-5 Gauss is exact
        total += fixed_quad(lambda t: d2(t) ** 2, a, b, n=5)[0]
    return total


def test_roughness_null_space():
    grid = np.array([0.0, 0.3, 0.45, 0.8, 1.0])
    omega = build_roughness_penalty(grid)
    const = np.ones(5)
    lin = 2.0 - 3.0 * grid
    assert const @ omega @ const == pytest.approx(0.0, abs=1e-10)
    assert lin @ omega @ lin == pytest.approx(0.0, abs=1e-10)


def test_roughness_matches_quadrature_oracle_on_parabola():
    grid = np.linspace(0.0, 1.0, 5)
    f = grid**2
    omega = build_roughness_penalty(grid)
    assert f @ omega @ f == pytest.approx(spline_curvature_energy(f, grid), rel=1e-10)


def test_roughness_matches_quadrature_oracle_random():
    rng = np.random.default_rng(11)
    for _ in range(5):
        k = int(rng.integers(4, 12))
        grid = np.sort(rng.random(k)) + np.arange(k) * 0.02
        f = rng.standard_normal(k)
        omega = build_roughness_penalty(grid)
        assert f @ omega @ f == pytest.approx(spline_curvature_energy(f, grid), rel=1e-8)


def test_roughness_rank_and_definiteness():
    rng = np.random.default_rng(12)
    grid = np.sort(rng.random(9)) + np.arange(9) * 0.05
    omega = build_roughness_penalty(grid)
    np.testing.assert_allclose(omega, omega.T, atol=1e-12)
    eigs = np.linalg.eigvalsh(omega)
    radius = eigs[-1]
    assert eigs[0] >= -1e-10 * radius
    # exactly two zero eigenvalues (constants and the linear grid)
    assert np.sum(np.abs(eigs) <= 1e-9 * radius) == 2


def test_roughness_contract_violations():
    with pytest.raises(ValueError):
        build_roughness_penalty(np.array([0.0, 1.0]))
    with pytest.raises(ValueError):
        build_roughness_penalty(np.array([0.0, 0.5, 0.5, 1.0]))


def test_two_way_penalty_zero_when_unpenalized():
    rng = np.random.default_rng(13)
    spec = TwoWayPenaltySpec(random_psd(rng, 4), random_psd(rng, 5), 0.0, 0.0)
    assert two_way_penalty(rng.standard_normal(4), rng.standard_normal(5), spec) == 0.0


def test_two_way_penalty_scale_invariance_exact_for_pow2():
    rng = np.random.default_rng(14)
    spec = TwoWayPenaltySpec(random_psd(rng, 6), random_psd(rng, 4), 0.7, 1.3)
    u = rng.standard_normal(6)
    v = rng.standard_normal(4)
    assert two_way_penalty(2.0 * u, v / 2.0, spec) == two_way_penalty(u, v, spec)


def test_two_way_penalty_dense_oracle():
    rng = np.random.default_rng(15)
    gu = np.linspace(0, 1, 6)
    gv = np.linspace(0, 1, 5)
    spec = TwoWayPenaltySpec(build_roughness_penalty(gu), build_roughness_penalty(gv), 1.0, 1.0)
    u = rng.standard_normal(6)
    v = rng.standard_normal(5)
    pu = spec.lambda_u * (u @ spec.omega_u @ u)
    pv = spec.lambda_v * (v @ spec.omega_v @ v)
    expected = pu * (v @ v) + pv * (u @ u) + pu * pv
    assert two_way_penalty(u, v, spec) == pytest.approx(expected, rel=1e-12)


def test_penalty_decomposition_identity():
    # u'(I+lu Ou)u * v'(I+lv Ov)v - u'u v'v  ==  two-way penalty
    rng = np.random.default_rng(16)
    for _ in range(10):
        m, n = 5, 7
        spec = TwoWayPenaltySpec(random_psd(rng, m), random_psd(rng, n),
                                 float(rng.random()), float(rng.random()))
        u = rng.standard_normal(m)
        v = rng.standard_normal(n)
        lhs = (u @ (np.eye(m) + spec.lambda_u * spec.omega_u) @ u) * (
            v @ (np.eye(n) + spec.lambda_v * spec.omega_v) @ v
        ) - (u @ u) * (v @ v)
        assert lhs == pytest.approx(two_way_penalty(u, v, spec), rel=1e-10)


def test_conditional_penalty_v_reductions():
    rng = np.random.default_rng(17)
    m, n = 5, 6
    omega_u, omega_v = random_psd(rng, m), random_psd(rng, n)
    u = rng.standard_normal(m)
    X = rng.standard_normal((m, n))
    w = rng.uniform(0.5, 2.0, (m, n))
    d, b = (u * u) @ w, u @ (w * X)

    zero = ConditionalKernel(X, u, w, TwoWayPenaltySpec(omega_u, omega_v, 0.0, 0.0))
    np.testing.assert_allclose(zero.solve(0.0), b / d, rtol=1e-12)

    lam_u = 0.8
    ridge = ConditionalKernel(X, u, w, TwoWayPenaltySpec(omega_u, omega_v, lam_u, 0.0))
    np.testing.assert_allclose(ridge.solve(0.0), b / (d + 2.0 * lam_u * (u @ omega_u @ u)), rtol=1e-12)


def test_conditional_penalty_quadratic_form_equals_joint_penalty():
    rng = np.random.default_rng(20)
    spec = TwoWayPenaltySpec(random_psd(rng, 4), random_psd(rng, 6), 0.3, 1.7)
    u = rng.standard_normal(4)
    v = rng.standard_normal(6)
    assert v @ dense_conditional_penalty_v(u, spec) @ v == pytest.approx(
        two_way_penalty(u, v, spec), rel=1e-12)
    assert u @ dense_conditional_penalty_v(v, spec.swapped()) @ u == pytest.approx(
        two_way_penalty(u, v, spec), rel=1e-12)


def test_spec_validation():
    rng = np.random.default_rng(21)
    omega = random_psd(rng, 4)
    with pytest.raises(ValueError):
        TwoWayPenaltySpec(omega, omega, lambda_u=-0.1)
    asym = omega.copy()
    asym[0, 1] += 1.0
    with pytest.raises(ValueError):
        TwoWayPenaltySpec(asym, omega)


def test_derived_specs_reuse_validated_matrices_and_check_lambdas():
    rng = np.random.default_rng(22)
    spec = TwoWayPenaltySpec(random_psd(rng, 4), random_psd(rng, 3), 0.5, 0.25)
    moved = spec.with_lambdas(lambda_v=2.0)
    assert moved.omega_u is spec.omega_u and moved.omega_v is spec.omega_v
    assert (moved.lambda_u, moved.lambda_v) == (0.5, 2.0)
    mirrored = spec.swapped()
    assert mirrored.omega_u is spec.omega_v and mirrored.omega_v is spec.omega_u
    assert (mirrored.lambda_u, mirrored.lambda_v) == (0.25, 0.5)
    with pytest.raises(ValueError, match="nonnegative"):
        spec.with_lambdas(lambda_u=-1.0)
