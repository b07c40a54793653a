"""Shared fixtures: dense brute-force oracles and the small-instance suite.

The oracles materialize the full mn-by-mn weighted systems with Kronecker
products and solve them with generic dense linear algebra, independent of
the block-collapsed formulas used by the library. Any agreement between the
two routes is therefore evidence, not tautology.
"""

import os

# One BLAS thread unless the caller set a count: the suite's dense solves are
# too small to gain from more, and extra threads only oversubscribe the cores.
# This must run before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np
import pytest

from robrsvd.decompose import rank_one_fit
from robrsvd.matrices import ObservedMatrix
from robrsvd.penalties import TwoWayPenaltySpec, build_roughness_penalty
from robrsvd.robust import huber_weight
from robrsvd.updates import ConditionalKernel


def svec(a: np.ndarray) -> np.ndarray:
    """Column-stacking vectorization."""
    return np.asarray(a).ravel(order="F")


def block_design(u: np.ndarray, n: int) -> np.ndarray:
    """mn-by-n block-diagonal stack of copies of u."""
    return np.kron(np.eye(n), np.asarray(u).reshape(-1, 1))


def dense_conditional_penalty_v(u, spec: TwoWayPenaltySpec) -> np.ndarray:
    m = spec.omega_u.shape[0]
    n = spec.omega_v.shape[0]
    alpha = float(u @ (np.eye(m) + spec.lambda_u * spec.omega_u) @ u)
    return alpha * (np.eye(n) + spec.lambda_v * spec.omega_v) - float(u @ u) * np.eye(n)


def dense_systems_v(X, u, weights, spec: TwoWayPenaltySpec):
    """Explicit mn-sized design, weight, and penalty pieces for the v-update."""
    X = np.asarray(X, dtype=float)
    n = X.shape[1]
    design = block_design(u, n)
    w_diag = np.diag(svec(weights))
    a = design.T @ w_diag @ design + 2.0 * dense_conditional_penalty_v(u, spec)
    rhs = design.T @ w_diag @ svec(X)
    return design, w_diag, a, rhs


def update_v_given_u(X, u, weights, spec: TwoWayPenaltySpec) -> np.ndarray:
    """The kernel's v-update at ``spec.lambda_v``, the route the dense oracles check."""
    return ConditionalKernel(X, u, weights, spec).solve(spec.lambda_v)


def update_u_given_v(X, v, weights, spec: TwoWayPenaltySpec) -> np.ndarray:
    """Mirror of :func:`update_v_given_u`: rows and columns swap roles."""
    return ConditionalKernel.for_u(X, v, weights, spec).solve(spec.lambda_u)


def dense_update_v(X, u, weights, spec) -> np.ndarray:
    _, _, a, rhs = dense_systems_v(X, u, weights, spec)
    return np.linalg.solve(a, rhs)


def dense_hat_trace_v(X, u, weights, spec) -> float:
    design, w_diag, a, _ = dense_systems_v(X, u, weights, spec)
    hat = design @ np.linalg.solve(a, design.T @ w_diag)
    return float(np.trace(hat))


def dense_gcv_v(X, u, weights, spec) -> tuple[float, float]:
    X = np.asarray(X, dtype=float)
    n = X.shape[1]
    design, w_diag, a, rhs = dense_systems_v(X, u, weights, spec)
    v_hat = np.linalg.solve(a, rhs)
    v_star = np.linalg.solve(design.T @ w_diag @ design, rhs)
    hat = design @ np.linalg.solve(a, design.T @ w_diag)
    trace = float(np.trace(hat))
    if trace / n >= 1.0 - 1e-12:
        return np.inf, trace
    score = (float(np.sum((v_hat - v_star) ** 2)) / n) / (1.0 - trace / n) ** 2
    return score, trace


def imputation_oracle(X: ObservedMatrix, method: str, start: str = "row_mean", tol: float = 1e-13,
                      max_rounds: int = 5000, **fit_kwargs):
    """(pair, filled matrix) at the fixed point of the fill-fit-refill loop.

    Missing cells start at their row or column mean; each round fits the
    filled, complete matrix and refills the missing cells from the fit, until
    no filled cell moves by more than tol * max|x|. Under the squared loss
    (svd, and rsvd at a fixed lambda) each round minimizes a majorizer of the
    observed-cell objective, so the loop's fixed point is a stationary point
    of the objective that the direct masked fit minimizes.
    """
    axis = 1 if start == "row_mean" else 0
    means = X.values.sum(axis=axis, keepdims=True) / X.mask.sum(axis=axis, keepdims=True)
    filled = np.where(X.mask, X.values, means)
    atol = tol * np.abs(X.values[X.mask]).max()
    for _ in range(max_rounds):
        pair = rank_one_fit(ObservedMatrix(filled, None, X.row_grid, X.col_grid), method, **fit_kwargs)
        refilled = np.where(X.mask, X.values, pair.reconstruction())
        change = np.abs(refilled - filled).max()
        filled = refilled
        if change <= atol:
            return pair, filled
    raise AssertionError(f"imputation oracle still moving by {change:.3e} after {max_rounds} rounds")


def mirror(X, weights, spec: TwoWayPenaltySpec):
    """Transpose a v-side problem into the equivalent u-side one."""
    return np.asarray(X).T, np.asarray(weights).T, spec.swapped()


def random_psd(rng, k: int) -> np.ndarray:
    b = rng.standard_normal((k, k))
    omega = b.T @ b / k
    return (omega + omega.T) / 2.0


class SmallInstance:
    """One random conditional-update problem with m*n <= 100."""

    def __init__(self, idx: int):
        rng = np.random.default_rng(1000 + idx)
        dims = [(m, n) for m in range(3, 11) for n in range(3, 11) if m * n <= 100]
        self.m, self.n = dims[rng.integers(len(dims))]
        m, n = self.m, self.n

        u0 = rng.standard_normal(m)
        v0 = rng.standard_normal(n)
        scale = 3.0
        values = scale * np.outer(u0, v0) + rng.normal(0.0, 0.5, (m, n))
        # a few gross outliers in half the cases
        if idx % 2 == 0:
            k = int(rng.integers(1, 4))
            flat = rng.choice(m * n, size=k, replace=False)
            values.flat[flat] += 10.0 * np.abs(values).max() * rng.choice([-1.0, 1.0], size=k)

        mask = np.ones((m, n), dtype=bool)
        if idx % 3 == 0:
            while True:
                mask = rng.random((m, n)) > 0.12
                if mask.any(axis=0).all() and mask.any(axis=1).all():
                    break
        self.values = np.where(mask, values, 0.0)
        self.mask = mask

        # current iterate and its IRLS weights (zero at masked cells)
        self.u = rng.standard_normal(m)
        self.u /= np.linalg.norm(self.u)
        self.v = rng.standard_normal(n)
        resid = self.values - 1.5 * np.outer(self.u, v0 / np.linalg.norm(v0))
        sigma = 0.8
        self.weights = np.where(mask, huber_weight(resid / sigma), 0.0)

        if min(m, n) >= 3 and idx % 4 != 1:
            gu = np.sort(rng.random(m)) + np.arange(m) * 0.05
            gv = np.sort(rng.random(n)) + np.arange(n) * 0.05
            omega_u, omega_v = build_roughness_penalty(gu), build_roughness_penalty(gv)
        else:
            omega_u, omega_v = random_psd(rng, m), random_psd(rng, n)
        lams = [0.0, 0.05, 0.7, 3.0]
        self.spec = TwoWayPenaltySpec(
            omega_u, omega_v,
            lambda_u=lams[rng.integers(4)],
            lambda_v=lams[rng.integers(4)],
        )


@pytest.fixture(scope="session")
def small_suite():
    return [SmallInstance(i) for i in range(50)]
