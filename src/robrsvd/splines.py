"""Natural cubic spline interpolation of discrete singular vectors.

A fitted left or right vector lives on the sampling grid; interpolating it
with the natural cubic spline extends it to a smooth function on the whole
domain. This interpolant is the minimum integrated-squared-second-derivative
function through the points, so its roughness agrees exactly with the
quadratic form of the penalty matrix built from the same grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solveh_banded

from .dataio import write_csv
from .penalties import spline_qr

__all__ = ["SplineFunction", "interpolate"]


@dataclass(frozen=True)
class SplineFunction:
    """Natural cubic spline through (knots, values).

    Stored as knot values plus second derivatives at the knots; the second
    derivative is zero at both ends (natural boundary conditions), which
    makes the extension beyond the domain linear.
    """

    knots: np.ndarray
    values: np.ndarray
    second_derivs: np.ndarray

    def in_domain(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        return (t >= self.knots[0]) & (t <= self.knots[-1])

    def __call__(self, t):
        """Evaluate at t; points outside the domain continue linearly."""
        t = np.asarray(t, dtype=float)
        scalar = t.ndim == 0
        t = np.atleast_1d(t)
        x, f, m2 = self.knots, self.values, self.second_derivs
        h = np.diff(x)

        idx = np.clip(np.searchsorted(x, t, side="right") - 1, 0, x.size - 2)
        hi = h[idx]
        a = x[idx + 1] - t
        b = t - x[idx]
        out = (
            m2[idx] * a**3 / (6.0 * hi)
            + m2[idx + 1] * b**3 / (6.0 * hi)
            + (f[idx] / hi - m2[idx] * hi / 6.0) * a
            + (f[idx + 1] / hi - m2[idx + 1] * hi / 6.0) * b
        )

        # linear continuation with the end slopes (second derivative vanishes
        # at the boundary, so this is the spline's own natural extension)
        left = t < x[0]
        right = t > x[-1]
        if np.any(left):
            slope0 = (f[1] - f[0]) / h[0] - h[0] * m2[1] / 6.0
            out[left] = f[0] + slope0 * (t[left] - x[0])
        if np.any(right):
            slope1 = (f[-1] - f[-2]) / h[-1] + h[-1] * m2[-2] / 6.0
            out[right] = f[-1] + slope1 * (t[right] - x[-1])
        return float(out[0]) if scalar else out

    def roughness(self) -> float:
        """Integrated squared second derivative of the interpolant.

        The second derivative is piecewise linear between knots, so the
        integral has the closed form sum h/3 (a^2 + a b + b^2) per interval.
        """
        h = np.diff(self.knots)
        a = self.second_derivs[:-1]
        b = self.second_derivs[1:]
        return float(np.sum(h * (a * a + a * b + b * b) / 3.0))

    def export_csv(self, path, num: int = 200) -> None:
        """Dense evaluation on the domain, written as (t, value, extrapolated)."""
        t = np.linspace(self.knots[0], self.knots[-1], num)
        write_csv(path, ["t", "value", "extrapolated"],
                  ([repr(ti), repr(vi), int(fi)]
                   for ti, vi, fi in zip(t.tolist(), self(t).tolist(), (~self.in_domain(t)).tolist())))


def interpolate(values, grid) -> SplineFunction:
    """Natural cubic spline interpolant of ``values`` at ``grid``.

    Among all twice-differentiable interpolants this one minimizes the
    integrated squared second derivative, and its roughness equals
    values' Omega values for the roughness penalty matrix of the same grid.
    """
    values = np.asarray(values, dtype=float)
    grid = np.asarray(grid, dtype=float)
    if values.ndim != 1 or grid.ndim != 1 or values.size != grid.size:
        raise ValueError("values and grid must be 1-d arrays of equal length")
    if grid.size < 3:
        raise ValueError("need at least 3 points")
    if np.any(np.diff(grid) <= 0):
        raise ValueError("grid must be strictly increasing with no duplicate knots")

    q, r_banded = spline_qr(grid)
    m2 = np.zeros(grid.size)
    m2[1:-1] = solveh_banded(r_banded, q.T @ values)
    return SplineFunction(grid.copy(), values.copy(), m2)
