import numpy as np
import pytest

from robrsvd.robust import (
    RobustLossSpec,
    estimate_scale_mad,
    huber_psi,
    huber_rho,
    huber_weight,
    squared_loss_spec,
)


def test_rho_at_zero():
    assert huber_rho(0.0, 1.345) == 0.0


def test_rho_boundary_quadratic_branch():
    assert huber_rho(1.345, 1.345) == pytest.approx(1.809025, abs=1e-12)


def test_rho_linear_branch():
    # 2*1.345*2.690 - 1.345^2
    assert huber_rho(2.690, 1.345) == pytest.approx(5.427075, abs=1e-12)


def test_weight_examples():
    assert huber_weight(0.0, 1.345) == 2.0
    assert huber_weight(1.0, 1.345) == 2.0
    assert huber_weight(2.690, 1.345) == pytest.approx(1.0, rel=1e-15)


def test_rho_even_and_nondecreasing():
    x = np.linspace(-5, 5, 201)
    r = huber_rho(x)
    np.testing.assert_allclose(r, huber_rho(-x), rtol=1e-15)
    half = huber_rho(np.linspace(0, 5, 101))
    assert np.all(np.diff(half) >= 0)


def test_rho_c1_at_threshold():
    theta = 1.345
    eps = 1e-9
    # both branches and their derivatives agree at |x| = theta
    assert huber_rho(theta - eps, theta) == pytest.approx(huber_rho(theta + eps, theta), abs=1e-8)
    assert huber_psi(theta - eps, theta) == pytest.approx(huber_psi(theta + eps, theta), abs=1e-8)


def test_weight_times_x_is_derivative_of_rho():
    rng = np.random.default_rng(5)
    x = rng.uniform(-4, 4, size=100)
    x = x[np.abs(x) > 1e-3]
    theta = 1.345
    psi = huber_weight(x, theta) * x
    np.testing.assert_allclose(psi, huber_psi(x, theta), rtol=1e-12)
    # central finite differences of rho
    h = 1e-6
    fd = (huber_rho(x + h, theta) - huber_rho(x - h, theta)) / (2 * h)
    np.testing.assert_allclose(psi, fd, rtol=1e-6, atol=1e-6)


def test_weight_bounds():
    x = np.linspace(-50, 50, 1001)
    w = huber_weight(x)
    assert np.all(w > 0)
    assert np.all(w <= 2.0)


def test_weight_infinite_theta_recovers_squared_loss():
    x = np.linspace(-100, 100, 11)
    np.testing.assert_array_equal(huber_weight(x, np.inf), 2.0)
    np.testing.assert_allclose(huber_rho(x, np.inf), x * x, rtol=1e-15)


def test_theta_must_be_positive():
    for fn in (huber_rho, huber_psi, huber_weight):
        with pytest.raises(ValueError):
            fn(1.0, 0.0)
        with pytest.raises(ValueError):
            fn(1.0, -2.0)


def test_mad_direct_example():
    r = np.array([[1.0, -1.0, 2.0], [-2.0, 3.0, 0.0]])
    # nonzero |r| = {1,1,2,2,3}, median 2
    assert estimate_scale_mad(r[r != 0]) == pytest.approx(2 / 0.675, rel=1e-12)


def test_mad_excludes_zeros():
    r = np.array([0.0, 0.0, 1.0, -1.0, 3.0])
    assert estimate_scale_mad(r) == pytest.approx(1 / 0.675, rel=1e-12)


def test_mad_even_count_averages_central_pair():
    r = np.array([1.0, 2.0, 3.0, 4.0])
    assert estimate_scale_mad(r) == pytest.approx(2.5 / 0.675, rel=1e-12)


def test_mad_matches_sort_based_oracle():
    rng = np.random.default_rng(77)
    r = rng.standard_normal((5, 5))

    # brute-force oracle: sort magnitudes, take middle (or mean of middle two)
    mags = sorted(abs(x) for x in r.ravel() if x != 0)
    k = len(mags)
    med = mags[k // 2] if k % 2 == 1 else 0.5 * (mags[k // 2 - 1] + mags[k // 2])
    assert estimate_scale_mad(r) == pytest.approx(med / 0.675, rel=1e-14)


def test_mad_sign_flip_invariance_and_scale_equivariance():
    rng = np.random.default_rng(8)
    r = rng.standard_normal(40)
    assert estimate_scale_mad(-r) == estimate_scale_mad(r)
    assert estimate_scale_mad(3.5 * r) == pytest.approx(3.5 * estimate_scale_mad(r), rel=1e-12)


def test_mad_degenerate_error():
    with pytest.raises(ValueError, match="sigma"):
        estimate_scale_mad(np.zeros(9))


def test_loss_spec_validation():
    RobustLossSpec()
    RobustLossSpec(theta=np.inf, sigma=1.0)
    with pytest.raises(ValueError):
        RobustLossSpec(theta=0.0)
    with pytest.raises(ValueError):
        RobustLossSpec(sigma=0.0)
    with pytest.raises(ValueError):
        RobustLossSpec(sigma=-1.0)
    spec = squared_loss_spec()
    assert np.isinf(spec.theta)


def test_loss_spec_rejects_an_infinite_sigma():
    # an infinite scale used to pass, and the objective's inf * 0 made every
    # fit run to max_iter with a NaN objective
    with pytest.raises(ValueError, match="positive finite number, got inf"):
        RobustLossSpec(sigma=np.inf)
