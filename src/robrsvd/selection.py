"""Generalized cross-validation for the two smoothing parameters.

Each conditional update has its own GCV score, evaluated with the weights
frozen at the current iteration: the squared distance between the penalized
and unpenalized updates, normalized by the squared complement of the average
hat-matrix trace. Selection is a plain grid search; the two parameters are
decoupled because each score conditions on the other side's current value.
This module holds the grid, the search and its record; the scores of the
whole grid come as one array from ``updates.ConditionalKernel.scores``,
which forms each conditional system.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

__all__ = ["LambdaGrid", "GcvRecord", "GcvTrace", "select_lambda"]


@dataclass(frozen=True)
class LambdaGrid:
    """Strictly increasing, finite, nonnegative smoothing-parameter candidates."""

    values: tuple

    def __post_init__(self):
        vals = tuple(float(x) for x in np.atleast_1d(np.asarray(self.values, dtype=float)))
        if len(vals) == 0:
            raise ValueError("lambda grid must be nonempty")
        if not all(np.isfinite(vals)) or any(x < 0 for x in vals):
            raise ValueError("lambda grid values must be finite and nonnegative")
        if any(b <= a for a, b in zip(vals, vals[1:])):
            raise ValueError("lambda grid must be strictly increasing")
        object.__setattr__(self, "values", vals)

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self):
        return iter(self.values)

    @classmethod
    def log_default(cls, lo: float = 1e-6, hi: float = 1e4, num: int = 20) -> "LambdaGrid":
        """Log-spaced default grid; excludes an exact 0, where GCV degenerates to 0/0."""
        if not 0.0 < lo <= hi < np.inf:
            raise ValueError(f"a log-spaced lambda grid needs 0 < lo <= hi < inf, got lo={lo}, hi={hi}")
        if num < 1 or (num == 1) != (lo == hi):
            raise ValueError("a log-spaced lambda grid needs num >= 1, and num == 1 exactly when lo == hi, "
                             f"got lo={lo}, hi={hi}, num={num}")
        return cls(tuple(np.logspace(np.log10(lo), np.log10(hi), num)))


@dataclass(frozen=True)
class GcvRecord:
    lam: float
    score: float
    hat_trace: float
    chosen: bool


@dataclass(frozen=True)
class GcvTrace:
    """Per-candidate GCV scores with exactly one chosen (minimum-score) record."""

    records: tuple

    @property
    def chosen(self) -> GcvRecord:
        return next(r for r in self.records if r.chosen)

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["lambda", "gcv", "hat_trace", "chosen"])
            for r in self.records:
                writer.writerow([repr(r.lam), repr(r.score), repr(r.hat_trace), int(r.chosen)])


def select_lambda(grid: LambdaGrid, *, scores, traces) -> tuple[float, GcvTrace]:
    """The grid value with the smallest finite GCV score, and the sweep's record.

    ``scores`` and ``traces`` hold one GCV score and one hat trace per grid
    value, as ``ConditionalKernel.scores(grid)`` returns them. Ties break
    toward the smaller lambda; NaN and infinite scores never win. Raises if
    no grid point has a finite score.
    """
    scores, traces = np.asarray(scores, dtype=float), np.asarray(traces, dtype=float)
    if not scores.shape == traces.shape == (len(grid),):
        raise ValueError(f"need one score and one trace per grid value ({len(grid)}), "
                         f"got {scores.shape} and {traces.shape}")
    finite = np.isfinite(scores)
    if not finite.any():
        raise ValueError("GCV degenerate on grid: no candidate produced a finite score")
    chosen_idx = int(np.argmin(np.where(finite, scores, np.inf)))
    records = tuple(
        GcvRecord(lam, s, tr, i == chosen_idx)
        for i, (lam, s, tr) in enumerate(zip(grid.values, scores.tolist(), traces.tolist()))
    )
    return grid.values[chosen_idx], GcvTrace(records)
