"""Huber loss, its IRLS weight function, and robust residual-scale estimation.

The loss is quadratic for small residuals and linear past the threshold
``theta``, so the influence of any single cell is bounded. Setting
``theta = inf`` recovers the squared loss exactly, which is the switch that
turns the robust decomposition back into its nonrobust counterpart.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .matrices import ResidualMatrix

__all__ = [
    "DEFAULT_THETA",
    "RobustLossSpec",
    "huber_rho",
    "huber_psi",
    "huber_weight",
    "estimate_scale_mad",
    "squared_loss_spec",
]

# 95% efficiency under normal errors, the customary robust-regression choice.
DEFAULT_THETA = 1.345

# Normalizer that makes the median absolute deviation consistent for the
# normal distribution (median of |N(0,1)| = 0.675 to three digits).
MAD_NORMALIZER = 0.675


def _check_theta(theta: float) -> float:
    theta = float(theta)
    if not theta > 0:
        raise ValueError(f"theta must be positive, got {theta}")
    return theta


def huber_rho(x, theta: float = DEFAULT_THETA):
    """Huber loss: x**2 inside [-theta, theta], 2*theta*|x| - theta**2 outside."""
    theta = _check_theta(theta)
    x = np.asarray(x, dtype=float)
    if np.isinf(theta):  # squared loss; avoids inf*0 in the unused branch
        out = x * x
    else:
        ax = np.abs(x)
        out = np.where(ax <= theta, x * x, 2.0 * theta * ax - theta * theta)
    return out if out.ndim else float(out)


def huber_psi(x, theta: float = DEFAULT_THETA):
    """Derivative of :func:`huber_rho`: 2x inside, 2*theta*sign(x) outside."""
    theta = _check_theta(theta)
    x = np.asarray(x, dtype=float)
    if np.isinf(theta):
        out = 2.0 * x
    else:
        out = np.where(np.abs(x) <= theta, 2.0 * x, 2.0 * theta * np.sign(x))
    return out if out.ndim else float(out)


def huber_weight(x, theta: float = DEFAULT_THETA):
    """IRLS weight psi(x)/x: equals 2 inside the threshold, 2*theta/|x| outside.

    The value at x = 0 is 2, the limit of psi(x)/x on the quadratic branch.
    Output lies in (0, 2] everywhere.
    """
    theta = _check_theta(theta)
    x = np.asarray(x, dtype=float)
    if np.isinf(theta):
        out = np.full_like(x, 2.0)
    else:
        ax = np.abs(x)
        inside = ax <= theta
        # |x| > theta implies |x| > 0, but keep the denominator safe for the
        # unused branch of np.where
        safe = np.where(inside, 1.0, ax)
        out = np.where(inside, 2.0, 2.0 * theta / safe)
    return out if out.ndim else float(out)


def estimate_scale_mad(residuals) -> float:
    """Normalized median absolute deviation of the nonzero observed residuals.

    Returns median(|r|, r != 0) / 0.675 over the observed cells. Exact zeros
    are excluded so that cells fitted perfectly (or masked placeholders that
    slipped through) do not drag the scale down.

    Raises
    ------
    ValueError
        If every observed residual is zero; the scale is then undefined and
        must be fixed manually.
    """
    if isinstance(residuals, ResidualMatrix):
        r = residuals.observed()
    else:
        r = np.asarray(residuals, dtype=float).ravel()
    r = r[r != 0]
    if r.size == 0:
        raise ValueError("degenerate residuals (all zero); fix sigma manually")
    return float(np.median(np.abs(r)) / MAD_NORMALIZER)


@dataclass(frozen=True)
class RobustLossSpec:
    """Huber threshold and residual scale for a robust fit.

    ``sigma_source`` selects how the scale is obtained: ``"fixed"`` uses the
    given ``sigma``; ``"mad_from_svd_residuals"`` estimates it once, by MAD,
    from the residuals of a plain rank-one SVD of the data before the robust
    iterations start (no per-iteration re-estimation).
    """

    theta: float = DEFAULT_THETA
    sigma: float = None
    sigma_source: str = "mad_from_svd_residuals"

    def __post_init__(self):
        _check_theta(self.theta)
        if self.sigma_source not in ("fixed", "mad_from_svd_residuals"):
            raise ValueError(f"unknown sigma_source {self.sigma_source!r}")
        if self.sigma_source == "fixed" and (self.sigma is None or not float(self.sigma) > 0):
            raise ValueError("fixed sigma must be a positive number")

    def weights(self, residuals: np.ndarray, sigma: float) -> np.ndarray:
        """Weight matrix of the sigma-scaled residuals (0 stays 0 only via masks)."""
        return huber_weight(np.asarray(residuals, dtype=float) / sigma, self.theta)


def squared_loss_spec() -> RobustLossSpec:
    """Loss spec that reproduces the plain squared loss (theta = inf, sigma = 1)."""
    return RobustLossSpec(theta=np.inf, sigma=1.0, sigma_source="fixed")
