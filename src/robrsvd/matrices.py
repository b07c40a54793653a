"""Data containers for two-way functional matrices.

A two-way functional matrix holds noisy evaluations of a smooth surface on a
rectangular grid: rows sample one continuous domain, columns the other.
Missing cells are tracked with a boolean mask; the mask is the single source
of truth and masked cells carry a placeholder value of 0 that no loss or
weight computation ever reads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["ObservedMatrix", "ResidualMatrix", "residual"]


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, copy=True)
    a.setflags(write=False)
    return a


def _check_grid(grid: np.ndarray, length: int, name: str) -> None:
    if grid.ndim != 1 or grid.size != length:
        raise ValueError(f"{name} must be a 1-d array of length {length}")
    if not np.all(np.isfinite(grid)):
        raise ValueError(f"{name} must be finite")
    if np.any(np.diff(grid) <= 0):
        raise ValueError(f"{name} must be strictly increasing")


@dataclass(frozen=True)
class ObservedMatrix:
    """An m-by-n real matrix with a missingness mask and sampling grids.

    Parameters
    ----------
    values : (m, n) array
        Matrix entries. Entries at masked cells are stored as 0 and never
        enter any loss sum.
    mask : (m, n) bool array, optional
        True marks an observed cell. Defaults to all observed.
    row_grid, col_grid : 1-d arrays, optional
        Strictly increasing sampling points for the row and column domains.
        Default to equally spaced points on [0, 1].
    """

    values: np.ndarray
    mask: np.ndarray = None
    row_grid: np.ndarray = None
    col_grid: np.ndarray = None

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 2:
            raise ValueError("values must be a 2-d array")
        m, n = values.shape
        if m < 2 or n < 2:
            raise ValueError("matrix must be at least 2x2")

        mask = self.mask
        if mask is None:
            mask = np.ones((m, n), dtype=bool)
        else:
            mask = np.asarray(mask, dtype=bool)
            if mask.shape != (m, n):
                raise ValueError("mask shape must match values shape")

        if not np.all(np.isfinite(values[mask])):
            raise ValueError("observed values must be finite")
        # enforce the placeholder convention at masked cells
        values = np.where(mask, values, 0.0)

        row_grid = self.row_grid
        col_grid = self.col_grid
        row_grid = np.linspace(0.0, 1.0, m) if row_grid is None else np.asarray(row_grid, dtype=float)
        col_grid = np.linspace(0.0, 1.0, n) if col_grid is None else np.asarray(col_grid, dtype=float)
        _check_grid(row_grid, m, "row_grid")
        _check_grid(col_grid, n, "col_grid")

        object.__setattr__(self, "values", _readonly(values))
        object.__setattr__(self, "mask", _readonly(mask))
        object.__setattr__(self, "row_grid", _readonly(row_grid))
        object.__setattr__(self, "col_grid", _readonly(col_grid))

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape

    @property
    def is_complete(self) -> bool:
        return bool(self.mask.all())

    @property
    def n_observed(self) -> int:
        return int(self.mask.sum())

    def observed_values(self) -> np.ndarray:
        """Flat array of the observed entries."""
        return self.values[self.mask]

    def with_values(self, values: np.ndarray) -> "ObservedMatrix":
        """Same mask and grids, new values."""
        return ObservedMatrix(values, self.mask, self.row_grid, self.col_grid)


@dataclass(frozen=True)
class ResidualMatrix:
    """Residuals of a fit on the observed cells; masked cells are 0/excluded."""

    residuals: np.ndarray
    mask: np.ndarray = None

    def __post_init__(self):
        r = np.asarray(self.residuals, dtype=float)
        if r.ndim != 2:
            raise ValueError("residuals must be a 2-d array")
        mask = self.mask
        if mask is None:
            mask = np.ones(r.shape, dtype=bool)
        else:
            mask = np.asarray(mask, dtype=bool)
            if mask.shape != r.shape:
                raise ValueError("mask shape must match residuals shape")
        if not np.all(np.isfinite(r[mask])):
            raise ValueError("observed residuals must be finite")
        r = np.where(mask, r, 0.0)
        object.__setattr__(self, "residuals", _readonly(r))
        object.__setattr__(self, "mask", _readonly(mask))

    def observed(self) -> np.ndarray:
        return self.residuals[self.mask]


def residual(X: ObservedMatrix, s: float, u: np.ndarray, v: np.ndarray) -> ResidualMatrix:
    """Residual matrix of the rank-one fit ``s * u v^T`` on the observed cells.

    Masked cells are set to 0 and flagged excluded through the returned mask.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    m, n = X.shape
    if u.shape != (m,) or v.shape != (n,):
        raise ValueError(f"expected u of length {m} and v of length {n}, got {u.shape} and {v.shape}")
    if not np.isfinite(s):
        raise ValueError("s must be finite")
    r = np.where(X.mask, X.values - s * np.outer(u, v), 0.0)
    return ResidualMatrix(r, X.mask)
