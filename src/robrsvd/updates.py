"""The conditional penalized weighted least-squares system of each half-step.

For fixed u, the weighted criterion in v has normal equations

    (U'WU + 2 * Omega_{v|u}) v = U'WY,

where U is the block-diagonal stack of u and Y the column-stacked data. The
block structure collapses U'WU to the diagonal sum_i u_i^2 w_ij and U'WY to
sum_i u_i w_ij x_ij, so no mn-sized matrix is ever materialized; the systems
are only n-by-n (or m-by-m for the mirrored update). ``ConditionalKernel``
is the one place that forms this system: it scores a whole lambda grid at
once (GCV scores and hat traces as two arrays) and solves at the chosen
lambda (one Cholesky solve), so a selecting half-step forms its system once.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np
from scipy.linalg import cho_factor, cho_solve, eigh

from .matrices import ObservedMatrix
from .penalties import TwoWayPenaltySpec

__all__ = [
    "ConditionalKernel",
    "DegenerateSystemError",
    "update_v_given_u",
    "update_u_given_v",
]


class DegenerateSystemError(ValueError):
    """A conditional system is singular (zero total weight at an index) or its
    penalty is not nonnegative definite."""


def _as_data(X) -> np.ndarray:
    if isinstance(X, ObservedMatrix):
        # masked placeholders are zero, and the weights are zero there too
        return X.values
    return np.asarray(X, dtype=float)


class ConditionalKernel:
    """The v-update system at every candidate lambda_v: GCV scores, hat traces, solution.

    With u, the weights and lambda_u fixed, the v-update system is
    diag(d) + 2 Omega_{v|u} = diag(e) + 2 alpha lam Omega_v, where
    alpha = u'(I + lambda_u Omega_u)u and e = d + 2(alpha - u'u); u'Omega_u u
    is clipped at 0, so that rounding cannot make e fall below d.
    ``solve`` factors the system by Cholesky. ``scores`` uses one
    eigendecomposition diag(e)^-1/2 Omega_v diag(e)^-1/2 = P diag(mu) P' (the
    Demmler-Reinsch basis), made on its first call: with G = diag(e)^-1/2 P
    and f = 1 / (1 + 2 alpha lam mu), the inverse is G diag(f) G', so a grid
    of K candidates costs one K-by-n product instead of K factorizations.
    ``ConditionalKernel.for_u`` gives the u-update's kernel. Raises
    DegenerateSystemError naming the indices whose total weight is zero.
    """

    def __init__(self, X, u, weights, spec: TwoWayPenaltySpec):
        values, w, u = _as_data(X), np.asarray(weights, dtype=float), np.asarray(u, dtype=float)
        if values.shape != w.shape or u.shape != (values.shape[0],):
            raise ValueError("shape mismatch between data, weights, and u")
        # diagonal d_j = sum_i u_i^2 w_ij and right side b_j = sum_i u_i w_ij x_ij
        d, b = (u * u) @ w, u @ (w * values)
        if spec.omega_u.shape[0] != u.size or spec.omega_v.shape[0] != d.size:
            raise ValueError("penalty matrices must match the data's rows and columns")
        if np.any(d <= 0):
            dead = np.flatnonzero(d <= 0)
            raise DegenerateSystemError(
                f"unpenalized update undefined: zero total weight at index(es) {dead.tolist()}"
            )
        uu = float(u @ u)
        # u'Omega_u u >= 0; clipping its rounding keeps e >= d > 0
        alpha = uu + spec.lambda_u * max(float(u @ spec.omega_u @ u), 0.0)
        self._d, self._b, self._omega = d, b, spec.omega_v
        self._alpha, self._ridge = alpha, alpha - uu
        self._e = d + 2.0 * self._ridge

    @classmethod
    def for_u(cls, X, v, weights, spec: TwoWayPenaltySpec) -> "ConditionalKernel":
        """The u-update's kernel at every candidate lambda_u, through the rows-for-columns mirror."""
        return cls(_as_data(X).T, v, np.asarray(weights, dtype=float).T, spec.swapped())

    def solve(self, lam: float) -> np.ndarray:
        """The penalized update at ``lam``: (diag(d) + 2 Omega_{v|u}) v = b."""
        a = (self._alpha * lam) * self._omega
        diagonal = slice(None, None, self._d.size + 1)
        a.flat[diagonal] += self._ridge
        a *= 2.0
        a.flat[diagonal] += self._d
        try:
            factor = cho_factor(a, lower=True, overwrite_a=True, check_finite=False)
        except np.linalg.LinAlgError as exc:
            raise DegenerateSystemError("conditional update is singular") from exc
        return cho_solve(factor, self._b, check_finite=False)

    @cached_property
    def _sweep(self) -> tuple:
        # (c, rate, n - trace terms, G, G'b, b/e - b/d) of the Demmler-Reinsch basis
        d, e = self._d, self._e
        scale = 1.0 / np.sqrt(e)
        scaled = self._omega * scale
        scaled *= scale[:, None]
        mu, g = eigh(scaled, overwrite_a=True, check_finite=False)
        del scaled
        if mu[0] < -1e-10 * max(float(np.abs(mu).max()), 1.0):
            raise DegenerateSystemError(
                f"penalty is not nonnegative definite: eigenvalue {mu[0]:.3e} of the scaled omega"
            )
        g *= scale[:, None]
        rate = 2.0 * self._alpha * np.maximum(mu, 0.0)
        c = d @ np.square(g)
        # n - trace = sum_k c_k (1 - f_k) + sum_j (e_j - d_j) / e_j, which keeps
        # the GCV denominator accurate where the trace is close to n
        free = (c * rate, float(np.sum(2.0 * self._ridge / e)))
        # b/e - b/d, the part of v_hat - b/d that does not depend on lam
        shift = -2.0 * self._ridge * self._b / (e * d)
        return c, rate, free, g, g.T @ self._b, shift

    def scores(self, grid) -> tuple[np.ndarray, np.ndarray]:
        """(GCV scores, hat traces) at every lambda of ``grid``, as two arrays.

        The hat trace sum_k c_k f_k, with c = d'(G o G), is the update's
        effective degrees of freedom, n when both penalties are off. The score
        is the squared distance of the penalized update from the unpenalized
        one (b/d), over n, normalized by (1 - trace/n)^2; +inf once the trace
        reaches n (the 0/0 of both smoothing parameters at 0).
        """
        c, rate, (free_rate, free_base), g, gb, shift = self._sweep
        lam = np.fromiter(grid, dtype=float)[:, None]
        f = 1.0 / (1.0 + lam * rate)
        traces = f @ c
        n = self._d.size
        # 1 - f = lam rate f, so neither n - trace nor v_hat - b/d below is
        # formed as a difference of nearly equal numbers
        free = (lam[:, 0] * (f @ free_rate) + free_base) / n
        # v_hat - b/d = G((f - 1) o G'b) + (b/e - b/d), one row per candidate
        gap = (gb * (-lam * rate * f)) @ g.T + shift
        scores = np.einsum("kj,kj->k", gap, gap) / n / np.maximum(free, 1e-12) ** 2
        return np.where(free > 1e-12, scores, np.inf), traces

    def score(self, lam: float) -> tuple[float, float]:
        """(GCV score, hat trace) at one ``lam``: see :meth:`scores`."""
        scores, traces = self.scores((lam,))
        return float(scores[0]), float(traces[0])

    def trace(self, lam: float) -> float:
        """Hat-matrix trace at one ``lam``: see :meth:`scores`."""
        return self.score(lam)[1]


def update_v_given_u(X, u: np.ndarray, weights, spec: TwoWayPenaltySpec) -> np.ndarray:
    """Minimizer of the penalized weighted criterion in v for fixed u.

    Weights must be zero at masked cells; those cells then drop out of both
    sides of the normal equations. Every column needs some positive weight.
    """
    return ConditionalKernel(X, u, weights, spec).solve(spec.lambda_v)


def update_u_given_v(X, v: np.ndarray, weights, spec: TwoWayPenaltySpec) -> np.ndarray:
    """Mirror of :func:`update_v_given_u`: rows and columns swap roles."""
    return ConditionalKernel.for_u(X, v, weights, spec).solve(spec.lambda_u)
