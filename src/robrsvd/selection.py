"""Generalized cross-validation for the two smoothing parameters.

Each conditional update has its own GCV score, evaluated with the weights
frozen at the current iteration: the squared distance between the penalized
and unpenalized updates, normalized by the squared complement of the average
hat-matrix trace. Selection is a plain grid search; the two parameters are
decoupled because each score conditions on the other side's current value.
``ConditionalKernel`` is the one route to a score or a hat trace: a sweep
costs one eigendecomposition of the weighted penalty matrix, after which
every candidate is scored in O(n^2) without a further factorization.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh

from .penalties import TwoWayPenaltySpec
from .updates import DegenerateSystemError, _as_data, design_v

__all__ = ["LambdaGrid", "GcvRecord", "GcvTrace", "ConditionalKernel", "select_lambda"]


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


class ConditionalKernel:
    """GCV score and hat trace of the v-update at every candidate lambda_v.

    With u, the weights and lambda_u fixed, the v-update system is
    diag(d) + 2 Omega_{v|u} = diag(e) + 2 alpha lam Omega_v, where
    alpha = u'(I + lambda_u Omega_u)u and e = d + 2(alpha - u'u). One
    eigendecomposition diag(e)^-1/2 Omega_v diag(e)^-1/2 = P diag(mu) P'
    (the Demmler-Reinsch basis) diagonalizes it for every lam at once: with
    G = diag(e)^-1/2 P and f = 1 / (1 + 2 alpha lam mu), the inverse is
    G diag(f) G', so each candidate costs O(n^2) instead of a factorization.
    ``ConditionalKernel.for_u`` gives the u-update's kernel. Raises
    ValueError naming the columns whose total weight is zero.
    """

    def __init__(self, X, u, weights, spec: TwoWayPenaltySpec):
        u = np.asarray(u, dtype=float)
        d, b = design_v(X, u, weights)
        if np.any(d <= 0):
            dead = np.flatnonzero(d <= 0)
            raise ValueError(
                f"unpenalized update undefined: zero total weight at index(es) {dead.tolist()}"
            )
        uu = float(u @ u)
        # u'Omega_u u >= 0; clipping its rounding keeps e >= d > 0
        alpha = uu + spec.lambda_u * max(float(u @ spec.omega_u @ u), 0.0)
        e = d + 2.0 * (alpha - uu)
        scale = 1.0 / np.sqrt(e)
        scaled = spec.omega_v * scale
        scaled *= scale[:, None]
        mu, g = eigh(scaled, overwrite_a=True, check_finite=False)
        del scaled
        if mu[0] < -1e-10 * max(float(np.abs(mu).max()), 1.0):
            raise DegenerateSystemError(
                f"penalty is not nonnegative definite: eigenvalue {mu[0]:.3e} of the scaled omega"
            )
        g *= scale[:, None]
        self._n = d.size
        self._rate = 2.0 * alpha * np.maximum(mu, 0.0)
        self._c = d @ np.square(g)
        # n - trace = sum_k c_k (1 - f_k) + sum_j (e_j - d_j) / e_j, which keeps
        # the GCV denominator accurate where the trace is close to n
        self._free_rate = self._c * self._rate
        self._free_base = float(np.sum(2.0 * (alpha - uu) / e))
        self._g = g
        self._gb = g.T @ b
        # b/e - b/d, the part of v_hat - b/d that does not depend on lam
        self._shift = -2.0 * (alpha - uu) * b / (e * d)

    @classmethod
    def for_u(cls, X, v, weights, spec: TwoWayPenaltySpec) -> "ConditionalKernel":
        """The u-update's kernel at every candidate lambda_u, through the rows-for-columns mirror."""
        return cls(_as_data(X).T, v, np.asarray(weights, dtype=float).T, spec.swapped())

    def _shrink(self, lam: float) -> np.ndarray:
        return 1.0 / (1.0 + lam * self._rate)

    def trace(self, lam: float) -> float:
        """Hat-matrix trace sum_k c_k f_k, with c = d'(G o G): the update's
        effective degrees of freedom, n when both penalties are off."""
        return float(self._c @ self._shrink(lam))

    def score(self, lam: float) -> tuple[float, float]:
        """(GCV score, hat trace) at ``lam``; +inf once the trace reaches n.

        The score is the squared distance of the penalized update from the
        unpenalized one (b/d), over n, normalized by (1 - trace/n)^2. +inf
        is the 0/0 guard hit when both smoothing parameters are 0.
        """
        f = self._shrink(lam)
        trace = float(self._c @ f)
        n = self._n
        # 1 - f = lam rate f, so neither n - trace nor v_hat - b/d below is
        # formed as a difference of nearly equal numbers
        free = (lam * float(self._free_rate @ f) + self._free_base) / n
        if free <= 1e-12:
            return np.inf, trace
        # v_hat - b/d = G((f - 1) o G'b) + (b/e - b/d)
        gap = self._g @ (self._gb * (-lam * self._rate * f)) + self._shift
        return float(gap @ gap) / n / free ** 2, trace


def select_lambda(grid: LambdaGrid, score) -> tuple[float, GcvTrace]:
    """Evaluate ``score`` at every grid value and return the argmin with its trace.

    ``score(lam)`` may return a bare number or a (score, hat_trace) pair.
    Ties break toward the smaller lambda. Raises if no grid point yields a
    finite score.
    """
    if isinstance(grid, (list, tuple, np.ndarray)):
        grid = LambdaGrid(tuple(grid))
    scores, traces = [], []
    for lam in grid:
        out = score(lam)
        if isinstance(out, tuple):
            s, tr = out
        else:
            s, tr = out, np.nan
        scores.append(float(s))
        traces.append(float(tr))
    finite = [s for s in scores if np.isfinite(s)]
    if not finite:
        raise ValueError("GCV degenerate on grid: no candidate produced a finite score")
    best = min(finite)
    chosen_idx = next(i for i, s in enumerate(scores) if s == best)
    records = tuple(
        GcvRecord(lam, s, tr, i == chosen_idx)
        for i, (lam, s, tr) in enumerate(zip(grid, scores, traces))
    )
    return grid.values[chosen_idx], GcvTrace(records)
