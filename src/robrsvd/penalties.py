"""Roughness penalty matrices and the two-way penalty on a singular pair.

The default penalty matrix Omega represents the integrated squared second
derivative of the natural cubic spline interpolant: f' Omega f equals
int (g'')^2 for the interpolant g of f at the grid points. It is built in
closed form from consecutive grid gaps via the classic Q/R decomposition of
the second-difference operator. It is the only penalty the fits use. The
conditional system that the two-way penalty induces on one vector when the
other is fixed is formed in ``updates.ConditionalKernel``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solveh_banded

__all__ = [
    "TwoWayPenaltySpec",
    "build_roughness_penalty",
    "two_way_penalty",
]


def spline_qr(grid: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Band matrices (Q, R) of the natural-cubic-spline penalty for a grid.

    Q is k-by-(k-2) with three nonzero entries per column (the divided
    second-difference stencil); R is the (k-2)-square symmetric tridiagonal
    Gram matrix of the piecewise-linear second-derivative basis, returned in
    upper banded storage for ``scipy.linalg.solveh_banded``.
    """
    grid = np.asarray(grid, dtype=float)
    k = grid.size
    if grid.ndim != 1 or k < 3:
        raise ValueError("grid must be a 1-d array with at least 3 points")
    h = np.diff(grid)
    if np.any(h <= 0):
        raise ValueError("grid must be strictly increasing")

    q = np.zeros((k, k - 2))
    cols = np.arange(k - 2)
    q[cols, cols] = 1.0 / h[:-1]
    q[cols + 1, cols] = -1.0 / h[:-1] - 1.0 / h[1:]
    q[cols + 2, cols] = 1.0 / h[1:]

    if k == 3:  # single interior knot: R is 1x1, diagonal-only band storage
        r_banded = np.array([(h[:-1] + h[1:]) / 3.0])
    else:
        r_banded = np.zeros((2, k - 2))
        r_banded[1] = (h[:-1] + h[1:]) / 3.0
        r_banded[0, 1:] = h[1:-1] / 6.0
    return q, r_banded


def build_roughness_penalty(grid) -> np.ndarray:
    """Penalty matrix Omega with f' Omega f = int (g'')^2 dt.

    Here g is the natural cubic spline interpolating f at the grid points.
    Omega = Q R^{-1} Q' is symmetric and nonnegative definite with rank k-2;
    its null space is spanned by the constant vector and the grid itself.
    Note the matrix is dense: R^{-1} fills in, even though Q and R are banded.
    """
    q, r_banded = spline_qr(grid)
    omega = q @ solveh_banded(r_banded, q.T)
    return (omega + omega.T) / 2.0


def _check_penalty_matrix(omega: np.ndarray, size: int, name: str) -> np.ndarray:
    omega = np.asarray(omega, dtype=float)
    if omega.shape != (size, size):
        raise ValueError(f"{name} must be {size}x{size}, got {omega.shape}")
    if not np.all(np.isfinite(omega)):
        raise ValueError(f"{name} must be finite")
    scale = np.abs(omega).max() or 1.0
    if np.abs(omega - omega.T).max() > 1e-10 * scale:
        raise ValueError(f"{name} must be symmetric")
    return (omega + omega.T) / 2.0


@dataclass(frozen=True)
class TwoWayPenaltySpec:
    """Penalty matrices for both domains and their smoothing parameters."""

    omega_u: np.ndarray
    omega_v: np.ndarray
    lambda_u: float = 0.0
    lambda_v: float = 0.0

    def __post_init__(self):
        m = np.asarray(self.omega_u).shape[0]
        n = np.asarray(self.omega_v).shape[0]
        object.__setattr__(self, "omega_u", _check_penalty_matrix(self.omega_u, m, "omega_u"))
        object.__setattr__(self, "omega_v", _check_penalty_matrix(self.omega_v, n, "omega_v"))
        if self.lambda_u < 0 or self.lambda_v < 0:
            raise ValueError("penalty parameters must be nonnegative")

    def _derived(self, omega_u, omega_v, lambda_u, lambda_v) -> "TwoWayPenaltySpec":
        # the matrices come from a validated spec, so only the lambdas are checked
        if lambda_u < 0 or lambda_v < 0:
            raise ValueError("penalty parameters must be nonnegative")
        spec = object.__new__(TwoWayPenaltySpec)
        spec.__dict__.update(omega_u=omega_u, omega_v=omega_v, lambda_u=lambda_u, lambda_v=lambda_v)
        return spec

    def with_lambdas(self, lambda_u: float = None, lambda_v: float = None) -> "TwoWayPenaltySpec":
        return self._derived(self.omega_u, self.omega_v, self.lambda_u if lambda_u is None else lambda_u,
                             self.lambda_v if lambda_v is None else lambda_v)

    def swapped(self) -> "TwoWayPenaltySpec":
        """Rows-for-columns mirror; lets every v-side formula serve the u side."""
        return self._derived(self.omega_v, self.omega_u, self.lambda_v, self.lambda_u)


def two_way_penalty(u: np.ndarray, v: np.ndarray, spec: TwoWayPenaltySpec) -> float:
    """Two-way roughness penalty on the pair (u, v).

    lam_u * u'Ou u * |v|^2 + lam_v * v'Ov v * |u|^2
    + lam_u * u'Ou u * lam_v * v'Ov v.

    The value is invariant under the rescaling (u, v) -> (c u, v / c), so it
    penalizes the shapes of the pair, not the split of the singular value.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape != (spec.omega_u.shape[0],) or v.shape != (spec.omega_v.shape[0],):
        raise ValueError("u/v lengths must match the penalty matrices")
    pu = spec.lambda_u * float(u @ spec.omega_u @ u)
    pv = spec.lambda_v * float(v @ spec.omega_v @ v)
    return pu * float(v @ v) + pv * float(u @ u) + pu * pv
