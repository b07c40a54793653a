"""Iterative imputation so every fit runs on a complete matrix.

Missing cells start at the row-wise (or column-wise) mean of the observed
entries, a rank-one fit runs on the filled matrix, the missing cells are
refilled from the fitted rank-one reconstruction, and the cycle repeats
until the imputed values stop moving. Filling a missing cell with its own
fitted value zeroes that cell's residual, so the filled-data objective
touches the observed-only objective from above; refitting then cannot
increase it, which is what makes the loop a majorize-minimize scheme.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import decompose
from .matrices import ObservedMatrix
from .robust import RobustLossSpec

__all__ = ["ImputationOptions", "ImputationState", "fit_with_missing", "initial_fill"]


@dataclass(frozen=True)
class ImputationOptions:
    """Initial fill direction, stopping tolerance, and round cap.

    ``tol`` is relative to the observed data range; rounds stop when no
    imputed cell moved by more than tol * range.
    """

    init: str = "row_mean"
    tol: float = 1e-6
    max_rounds: int = 50

    def __post_init__(self):
        if self.init not in ("row_mean", "col_mean"):
            raise ValueError(f"init must be 'row_mean' or 'col_mean', got {self.init!r}")
        if not self.tol > 0 or self.max_rounds < 1:
            raise ValueError("tol must be positive and max_rounds at least 1")


@dataclass(frozen=True)
class ImputationState:
    """Filled matrix and stopping diagnostics of the imputation loop."""

    filled: np.ndarray
    rounds: int
    last_change: float
    converged: bool = True


def initial_fill(X: ObservedMatrix, how: str) -> np.ndarray:
    """Observed cells as they are, missing cells at their row or column mean
    (``how`` is ``ImputationOptions.init``)."""
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
    if how == "row_mean":
        means = values.sum(axis=1) / obs_rows
        fill = np.broadcast_to(means[:, None], values.shape)
    else:
        means = values.sum(axis=0) / obs_cols
        fill = np.broadcast_to(means[None, :], values.shape)
    return np.where(mask, values, fill)


def fit_with_missing(
    X: ObservedMatrix,
    method: str = "robrsvd",
    loss: RobustLossSpec = None,
    penalty_grid=None,
    opts=None,
    omegas=None,
    imputation: ImputationOptions = None,
):
    """Rank-one fit of a matrix with missing cells, by iterative imputation.

    Returns ``(pair, state)``. A complete input is fitted directly with zero
    imputation rounds. Observed cells are never altered. For the robust
    method the residual scale is estimated once, on the initially filled
    matrix, and held fixed across rounds so all rounds minimize the same
    objective. The pair's ``history["imputation"]`` records the rounds, the
    last change and whether the imputation converged; the pair is
    ``converged`` only if its last fit and the imputation both converged.
    """
    imputation = ImputationOptions() if imputation is None else imputation

    if X.is_complete:
        pair = decompose.rank_one_fit(X, method, loss, penalty_grid, opts, omegas)
        return pair, ImputationState(X.values.copy(), 0, 0.0)

    filled = initial_fill(X, imputation.init)
    missing = ~X.mask
    observed = X.observed_values()
    data_range = float(observed.max() - observed.min())
    atol = imputation.tol * (data_range if data_range > 0 else 1.0)

    pair = None
    last_change = np.inf
    rounds = 0
    converged = False
    for rounds in range(1, imputation.max_rounds + 1):
        Xf = ObservedMatrix(filled, None, X.row_grid, X.col_grid)
        pair = decompose.rank_one_fit(Xf, method, loss, penalty_grid, opts, omegas)
        if method == "robrsvd" and rounds == 1:
            # freeze the scale found on the first filled matrix
            loss_sigma = pair.history.get("sigma")
            base = RobustLossSpec() if loss is None else loss
            loss = replace(base, sigma=loss_sigma, sigma_source="fixed")
        new_fill = pair.reconstruction()[missing]
        last_change = float(np.max(np.abs(new_fill - filled[missing])))
        filled = filled.copy()
        filled[missing] = new_fill
        if last_change < atol:
            converged = True
            break

    record = {"rounds": rounds, "last_change": last_change, "converged": converged}
    pair = replace(pair, converged=pair.converged and converged,
                   history={**pair.history, "imputation": record})
    return pair, ImputationState(filled, rounds, last_change, converged)
