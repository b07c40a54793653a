"""Generalized cross-validation for the two smoothing parameters.

Each conditional update has its own GCV score, evaluated with the weights
frozen at the current iteration: the squared distance between the penalized
and unpenalized updates, normalized by the squared complement of the average
hat-matrix trace. Selection is a plain grid search; the two parameters are
decoupled because each score conditions on the other side's current value.
This module holds the grid and the search's record;
``updates.ConditionalKernel.select``, which forms each conditional system,
scores the whole grid as one array and picks its minimum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataio import write_csv

__all__ = ["LambdaGrid", "GcvRecord", "GcvTrace"]


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
        write_csv(path, ["lambda", "gcv", "hat_trace", "chosen"],
                  ([repr(r.lam), repr(r.score), repr(r.hat_trace), int(r.chosen)] for r in self.records))
