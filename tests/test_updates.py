import numpy as np
import pytest

import robrsvd.decompose
import robrsvd.updates
from robrsvd.decompose import FitOptions, fit_rank_one_robrsvd
from robrsvd.matrices import ObservedMatrix
from robrsvd.penalties import TwoWayPenaltySpec, build_roughness_penalty
from robrsvd.robust import huber_weight
from robrsvd.updates import ConditionalKernel, DegenerateSystemError, update_u_given_v, update_v_given_u
from conftest import (
    dense_gcv_v,
    dense_hat_trace_v,
    dense_update_v,
    mirror,
    random_psd,
)


def zero_spec(m, n, rng):
    return TwoWayPenaltySpec(random_psd(rng, m), random_psd(rng, n), 0.0, 0.0)


def test_constant_weights_no_penalty_is_plain_regression():
    rng = np.random.default_rng(40)
    X = rng.standard_normal((6, 4))
    u = rng.standard_normal(6)
    w = np.full((6, 4), 2.0)
    v = update_v_given_u(X, u, w, zero_spec(6, 4, rng))
    np.testing.assert_allclose(v, X.T @ u / (u @ u), rtol=1e-12)


def test_outlier_cell_matches_per_column_weighted_oracle():
    rng = np.random.default_rng(41)
    u = rng.standard_normal(3)
    v0 = rng.standard_normal(2)
    X = np.outer(u, v0) + rng.normal(0, 0.1, (3, 2))
    X[2, 1] += 25.0  # pushed far past theta*sigma
    w = huber_weight(X - np.outer(u, v0))
    v = update_v_given_u(X, u, w, zero_spec(3, 2, rng))
    # independent scalar minimization per column: v_j = sum_i w u x / sum_i w u^2
    for j in range(2):
        expect = np.sum(w[:, j] * u * X[:, j]) / np.sum(w[:, j] * u * u)
        assert v[j] == pytest.approx(expect, rel=1e-12)


def test_update_v_matches_dense_system_oracle():
    rng = np.random.default_rng(42)
    X = rng.standard_normal((6, 5))
    u = rng.standard_normal(6)
    w = rng.uniform(0.5, 2.0, (6, 5))
    spec = TwoWayPenaltySpec(
        build_roughness_penalty(np.linspace(0, 1, 6)),
        build_roughness_penalty(np.linspace(0, 1, 5)),
        lambda_u=0.1,
        lambda_v=0.3,
    )
    got = update_v_given_u(X, u, w, spec)
    want = dense_update_v(X, u, w, spec)
    np.testing.assert_allclose(got, want, rtol=1e-10)


def test_update_u_matches_dense_system_oracle():
    rng = np.random.default_rng(43)
    X = rng.standard_normal((5, 7))
    v = rng.standard_normal(7)
    w = rng.uniform(0.1, 2.0, (5, 7))
    spec = TwoWayPenaltySpec(random_psd(rng, 5), random_psd(rng, 7), 0.4, 0.05)
    got = update_u_given_v(X, v, w, spec)
    xt, wt, sw = mirror(X, w, spec)
    want = dense_update_v(xt, v, wt, sw)
    np.testing.assert_allclose(got, want, rtol=1e-10)


def test_update_u_constant_weights_reduction():
    rng = np.random.default_rng(44)
    X = rng.standard_normal((4, 6))
    v = rng.standard_normal(6)
    w = np.full((4, 6), 2.0)
    u = update_u_given_v(X, v, w, zero_spec(4, 6, rng))
    np.testing.assert_allclose(u, X @ v / (v @ v), rtol=1e-12)


def test_masked_cells_drop_out():
    rng = np.random.default_rng(45)
    values = rng.standard_normal((5, 4))
    mask = np.ones((5, 4), dtype=bool)
    mask[0, 1] = mask[3, 2] = False
    X = ObservedMatrix(values, mask)
    u = rng.standard_normal(5)
    w = np.where(mask, 2.0, 0.0)
    spec = zero_spec(5, 4, rng)
    got = update_v_given_u(X, u, w, spec)
    want = dense_update_v(X.values, u, w, spec)
    np.testing.assert_allclose(got, want, rtol=1e-10)


def test_scale_split_equivariance():
    # v-hat(c*u) == v-hat(u)/c with weights held fixed
    rng = np.random.default_rng(46)
    X = rng.standard_normal((6, 5))
    u = rng.standard_normal(6)
    w = rng.uniform(0.5, 2.0, (6, 5))
    spec = TwoWayPenaltySpec(random_psd(rng, 6), random_psd(rng, 5), 0.2, 0.9)
    v1 = update_v_given_u(X, u, w, spec)
    v2 = update_v_given_u(X, 4.0 * u, w, spec)
    np.testing.assert_allclose(4.0 * v2, v1, rtol=1e-11)


def test_hat_trace_equals_n_when_unpenalized():
    rng = np.random.default_rng(47)
    u = rng.standard_normal(6)
    w = rng.uniform(0.5, 2.0, (6, 5))
    kernel = ConditionalKernel(np.zeros((6, 5)), u, w, zero_spec(6, 5, rng))
    assert kernel.trace(0.0) == pytest.approx(5.0, rel=1e-12)


def test_hat_trace_matches_explicit_hat_matrix():
    rng = np.random.default_rng(48)
    X = rng.standard_normal((4, 3))
    u = rng.standard_normal(4)
    w = rng.uniform(0.2, 2.0, (4, 3))
    spec = TwoWayPenaltySpec(random_psd(rng, 4), random_psd(rng, 3), 0.6, 0.25)
    got = ConditionalKernel(X, u, w, spec).trace(spec.lambda_v)
    want = dense_hat_trace_v(X, u, w, spec)  # trace of the explicit 12x12 hat matrix
    assert got == pytest.approx(want, rel=1e-10)


def test_hat_trace_u_matches_dense():
    rng = np.random.default_rng(49)
    X = rng.standard_normal((5, 4))
    v = rng.standard_normal(4)
    w = rng.uniform(0.2, 2.0, (5, 4))
    spec = TwoWayPenaltySpec(random_psd(rng, 5), random_psd(rng, 4), 0.3, 0.8)
    got = ConditionalKernel.for_u(X, v, w, spec).trace(spec.lambda_u)
    xt, wt, sw = mirror(X, w, spec)
    want = dense_hat_trace_v(xt, v, wt, sw)
    assert got == pytest.approx(want, rel=1e-10)


def test_hat_trace_monotone_in_lambda_and_shrinks_below_n():
    rng = np.random.default_rng(50)
    m, n = 7, 6
    u = rng.standard_normal(m)
    w = rng.uniform(0.5, 2.0, (m, n))
    omega_u = build_roughness_penalty(np.linspace(0, 1, m))
    omega_v = build_roughness_penalty(np.linspace(0, 1, n))
    lams = np.logspace(-8, 10, 19)
    kernel = ConditionalKernel(np.zeros((m, n)), u, w, TwoWayPenaltySpec(omega_u, omega_v))
    traces = np.array([kernel.trace(lam) for lam in lams])
    well_conditioned = lams <= 1e4
    assert np.all(np.diff(traces[well_conditioned]) <= 1e-9)
    # beyond that the solves approach the precision limit; allow roundoff blips
    assert np.all(np.diff(traces) <= 1e-4)
    assert traces[-1] < n
    # spline penalty leaves a two-dimensional unpenalized null space
    assert traces[-1] == pytest.approx(2.0, abs=0.05)


def test_degenerate_column_error_names_index():
    rng = np.random.default_rng(51)
    X = rng.standard_normal((4, 3))
    u = rng.standard_normal(4)
    w = rng.uniform(0.5, 2.0, (4, 3))
    w[:, 1] = 0.0  # fully masked column, no penalty coupling
    with pytest.raises(DegenerateSystemError, match=r"\[1\]"):
        update_v_given_u(X, u, w, zero_spec(4, 3, rng))


def test_small_instance_suite_oracle_equivalence(small_suite):
    for inst in small_suite:
        got_v = update_v_given_u(inst.values, inst.u, inst.weights, inst.spec)
        want_v = dense_update_v(inst.values, inst.u, inst.weights, inst.spec)
        np.testing.assert_allclose(got_v, want_v, rtol=1e-10,
                                   atol=1e-10 * max(1.0, np.abs(want_v).max()))

        got_u = update_u_given_v(inst.values, inst.v, inst.weights, inst.spec)
        xt, wt, sw = mirror(inst.values, inst.weights, inst.spec)
        want_u = dense_update_v(xt, inst.v, wt, sw)
        np.testing.assert_allclose(got_u, want_u, rtol=1e-10,
                                   atol=1e-10 * max(1.0, np.abs(want_u).max()))

        kernel = ConditionalKernel(inst.values, inst.u, inst.weights, inst.spec)
        got_tr = kernel.trace(inst.spec.lambda_v)
        want_tr = dense_hat_trace_v(inst.values, inst.u, inst.weights, inst.spec)
        assert got_tr == pytest.approx(want_tr, rel=1e-10)


def test_hat_trace_zero_weight_error_names_index():
    rng = np.random.default_rng(52)
    w = rng.uniform(0.5, 2.0, (4, 3))
    w[:, 1] = 0.0  # column 1 has no weight, even though lambda_u couples it
    spec = TwoWayPenaltySpec(random_psd(rng, 4), random_psd(rng, 3), 0.5, 0.5)
    with pytest.raises(ValueError, match=r"zero total weight at index\(es\) \[1\]"):
        ConditionalKernel(np.zeros((4, 3)), rng.standard_normal(4), w, spec)
    with pytest.raises(ValueError, match=r"zero total weight at index\(es\) \[1\]"):
        ConditionalKernel.for_u(np.zeros((3, 4)), rng.standard_normal(4), w.T, spec.swapped())


def test_a_solve_computes_no_eigendecomposition(monkeypatch):
    # only a selecting half-step sweeps the grid; every half-step solves,
    # a selecting one from the kernel that swept
    calls = {"eigh": 0, "solve": 0}

    def counted(module, name, key):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[key] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    counted(robrsvd.updates, "eigh", "eigh")
    counted(robrsvd.updates.ConditionalKernel, "solve", "solve")
    X = np.random.default_rng(53).standard_normal((20, 16)) + 5.0 * np.outer(
        np.linspace(1.0, 2.0, 20), np.sin(np.linspace(0.0, 3.0, 16)))
    pair = fit_rank_one_robrsvd(X, opts=FitOptions(tol=0.0, max_iter=3, lambda_freeze_after=1))
    assert pair.iterations == 3
    assert calls == {"eigh": 2, "solve": 6}
