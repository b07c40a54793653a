"""Data containers for two-way functional matrices.

A two-way functional matrix holds noisy evaluations of a smooth surface on a
rectangular grid: rows sample one continuous domain, columns the other.
Missing cells are tracked with a boolean mask; the mask is the single source
of truth and masked cells carry a placeholder value of 0 that no loss or
weight computation ever reads. One type, ``ObservedMatrix``, holds every
masked matrix: the input, each deflated matrix a component is fitted to, and
a decomposition's residual, which keeps the input's mask and grids.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["ObservedMatrix"]


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

        mask = np.ones((m, n), dtype=bool) if self.mask is None else np.asarray(self.mask, dtype=bool)
        if mask.shape != (m, n):
            raise ValueError("mask shape must match values shape")
        if not np.all(np.isfinite(values[mask])):
            raise ValueError("observed values must be finite")
        # enforce the placeholder convention at masked cells
        values = np.where(mask, values, 0.0)

        row_grid, col_grid = (np.linspace(0.0, 1.0, k) if g is None else np.asarray(g, dtype=float)
                              for g, k in ((self.row_grid, m), (self.col_grid, n)))
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

    def with_values(self, values: np.ndarray) -> "ObservedMatrix":
        """Same mask and grids, new values."""
        return ObservedMatrix(values, self.mask, self.row_grid, self.col_grid)

