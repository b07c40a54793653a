"""Conditional penalized weighted least-squares updates.

For fixed u, the weighted criterion in v has normal equations

    (U'WU + 2 * Omega_{v|u}) v = U'WY,

where U is the block-diagonal stack of u and Y the column-stacked data. The
block structure collapses U'WU to the diagonal sum_i u_i^2 w_ij and U'WY to
sum_i u_i w_ij x_ij, so no mn-sized matrix is ever materialized; the systems
solved here are only n-by-n (or m-by-m for the mirrored update). Each update
is one Cholesky solve. Hat traces and GCV scores come from
``selection.ConditionalKernel``, which builds on ``design_v`` below.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .matrices import ObservedMatrix
from .penalties import TwoWayPenaltySpec, conditional_penalty_v

__all__ = [
    "DegenerateSystemError",
    "update_v_given_u",
    "update_u_given_v",
]


class DegenerateSystemError(ValueError):
    """A conditional system is singular (zero weights, no penalty coupling) or its
    penalty is not nonnegative definite."""


def _as_data(X) -> np.ndarray:
    if isinstance(X, ObservedMatrix):
        # masked placeholders are zero, and the weights are zero there too
        return X.values
    return np.asarray(X, dtype=float)


def design_v(X, u: np.ndarray, weights) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal d_j = sum_i u_i^2 w_ij and right side b_j = sum_i u_i w_ij x_ij."""
    values = _as_data(X)
    w = np.asarray(weights, dtype=float)
    u = np.asarray(u, dtype=float)
    if values.shape != w.shape or u.shape != (values.shape[0],):
        raise ValueError("shape mismatch between data, weights, and u")
    d = (u * u) @ w
    b = u @ (w * values)
    return d, b


def _factor_conditional(d: np.ndarray, omega_cond: np.ndarray, side: str):
    """Cholesky factor of diag(d) + 2*omega_cond with a named failure mode."""
    a = 2.0 * omega_cond
    a[np.diag_indices_from(a)] += d
    try:
        return cho_factor(a, lower=True, check_finite=False)
    except np.linalg.LinAlgError as exc:
        dead = np.flatnonzero(d == 0)
        if dead.size:
            raise DegenerateSystemError(
                f"conditional update is singular: all weights are zero at "
                f"{side}(s) {dead.tolist()} and the penalty does not couple them"
            ) from exc
        raise DegenerateSystemError("conditional update is singular") from exc


def _solve_v(X, u, weights, spec: TwoWayPenaltySpec, side: str) -> np.ndarray:
    d, b = design_v(X, u, weights)
    factor = _factor_conditional(d, conditional_penalty_v(u, spec), side)
    return cho_solve(factor, b, check_finite=False)


def update_v_given_u(X, u: np.ndarray, weights, spec: TwoWayPenaltySpec) -> np.ndarray:
    """Minimizer of the penalized weighted criterion in v for fixed u.

    Weights must be zero at masked cells; those cells then drop out of both
    sides of the normal equations.
    """
    return _solve_v(X, u, weights, spec, "column")


def update_u_given_v(X, v: np.ndarray, weights, spec: TwoWayPenaltySpec) -> np.ndarray:
    """Mirror of :func:`update_v_given_u`: rows and columns swap roles."""
    values = _as_data(X)
    w = np.asarray(weights, dtype=float)
    return _solve_v(values.T, v, w.T, spec.swapped(), "row")

