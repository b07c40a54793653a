"""Where a fit of a matrix with missing cells starts.

A missing cell is a zero weight in both conditional regressions of the IRLS
loop in ``decompose``, so a masked matrix is fitted on its observed cells
directly and no filled matrix is ever refitted. Only the start needs a
complete matrix: the leading SVD triple and the residual scale of
``decompose.fit_start`` are taken from the input with each missing cell at
the mean of the observed cells in its row.
"""

from __future__ import annotations

import numpy as np

from .matrices import ObservedMatrix

__all__ = ["initial_fill"]


def initial_fill(X: ObservedMatrix) -> np.ndarray:
    """Observed cells as they are, missing cells at their row's observed mean."""
    values, mask = X.values, X.mask
    obs_rows = mask.sum(axis=1)
    obs_cols = mask.sum(axis=0)
    if np.any(obs_rows == 0) or np.any(obs_cols == 0):
        empty_r = np.flatnonzero(obs_rows == 0).tolist()
        empty_c = np.flatnonzero(obs_cols == 0).tolist()
        raise ValueError(
            f"every row and column needs at least one observed cell "
            f"(empty rows {empty_r}, empty columns {empty_c})"
        )
    means = values.sum(axis=1) / obs_rows
    return np.where(mask, values, means[:, None])
