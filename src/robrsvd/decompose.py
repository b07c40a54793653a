"""Rank-one robust regularized fits and sequential deflation.

The iteratively reweighted least squares engine alternates the two
conditional updates: weights are recomputed from the sigma-scaled residuals
before each half-step, the smoothing parameter of the side being updated is
chosen by GCV (optionally frozen after a few iterations to stabilize
convergence), the solved vector is normalized to unit length, and its norm
becomes the running singular-value estimate. Initialization comes from the
plain SVD. With an infinite robustness threshold the weights are constant
and the loop is exactly the nonrobust regularized SVD; with the penalties at
zero it reduces further to the plain SVD.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# imputation imports this module in turn; each calls the other through the
# module object, so neither needs the other fully loaded at import time
from . import imputation as imputing
from .matrices import ObservedMatrix, ResidualMatrix
from .penalties import TwoWayPenaltySpec, build_roughness_penalty, two_way_penalty
from .robust import RobustLossSpec, estimate_scale_mad, huber_rho, squared_loss_spec
from .selection import LambdaGrid, select_lambda
from .updates import ConditionalKernel, update_u_given_v, update_v_given_u

__all__ = [
    "METHODS",
    "ComponentPair",
    "Decomposition",
    "FitOptions",
    "fit",
    "fit_rank_one_svd",
    "fit_rank_one_rsvd",
    "fit_rank_one_robrsvd",
    "fit_start",
    "huber_objective",
    "spline_penalties",
]

# plain SVD, squared-loss regularized SVD, Huber-loss regularized SVD
METHODS = ("svd", "rsvd", "robrsvd")


@dataclass(frozen=True)
class FitOptions:
    """Convergence and selection knobs for the rank-one engine.

    ``lambda_freeze_after``: stop re-selecting the smoothing parameters by
    GCV after this many iterations and keep the last choice (None disables
    freezing). Re-selecting every step can cycle; freezing is on by default
    and is recorded in the fit history.
    """

    tol: float = 1e-6
    max_iter: int = 100
    lambda_freeze_after: int = 5


@dataclass(frozen=True)
class ComponentPair:
    """One extracted triple (s, u, v) with diagnostics.

    u and v have unit Euclidean norm, s >= 0, and the pair is sign-fixed so
    that the largest-magnitude entry of v is positive. ``history`` carries
    the objective trace, per-iteration smoothing parameters, the residual
    scale actually used, and the final GCV traces.
    """

    s: float
    u: np.ndarray
    v: np.ndarray
    lambda_u: float = 0.0
    lambda_v: float = 0.0
    iterations: int = 0
    final_objective: float = np.nan
    converged: bool = True
    history: dict = field(default_factory=dict, repr=False, compare=False)

    def reconstruction(self) -> np.ndarray:
        return self.s * np.outer(self.u, self.v)


@dataclass(frozen=True)
class Decomposition:
    """Sequentially extracted components; pair k is fitted on the residual of 1..k-1."""

    components: tuple
    residual: ResidualMatrix
    method: str

    @property
    def singular_values(self) -> np.ndarray:
        return np.array([c.s for c in self.components])

    def left_vectors(self) -> np.ndarray:
        return np.column_stack([c.u for c in self.components])

    def right_vectors(self) -> np.ndarray:
        return np.column_stack([c.v for c in self.components])

    def reconstruction(self, rank: int = None) -> np.ndarray:
        rank = len(self.components) if rank is None else rank
        out = np.zeros(self.residual.residuals.shape)
        for c in self.components[:rank]:
            out += c.reconstruction()
        return out


def _sign_fix(u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # joint flip so the largest-magnitude entry of v is positive
    j = int(np.argmax(np.abs(v)))
    if v[j] < 0:
        return -u, -v
    return u, v


def huber_objective(values, s, u, v, theta, sigma, spec: TwoWayPenaltySpec, mask=None) -> float:
    """Robust loss of the rank-one fit plus the two-way penalty.

    The loss term is sigma^2 * sum rho((x - s u v')/sigma): scaling the
    residuals for the loss and multiplying back by sigma^2 keeps the
    loss/penalty balance that the printed update equations solve, and it
    reduces to the unscaled criterion at sigma = 1. The penalty is evaluated
    at the product scale, which is well defined because it is invariant to
    how the scale splits between u and v. Masked cells are excluded.
    """
    r = np.asarray(values, dtype=float) - s * np.outer(u, v)
    rho = huber_rho(r / sigma, theta)
    if mask is not None:
        rho = np.where(mask, rho, 0.0)
    return sigma * sigma * float(np.sum(rho)) + two_way_penalty(s * np.asarray(u), v, spec)


def _leading_triple(values: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    u_mat, s_vec, vt = np.linalg.svd(values, full_matrices=False)
    u, v = _sign_fix(u_mat[:, 0], vt[0])
    return float(s_vec[0]), u, v


def fit_start(values: np.ndarray, loss: RobustLossSpec) -> tuple[float, np.ndarray, np.ndarray, float]:
    """Where every fit starts: the leading SVD triple and the residual scale sigma.

    A robust loss (finite theta) raises ValueError when the MAD scale is at
    the rounding level of the data (at most 1e-10 max|x|), as on noise-free
    input: weights scaled by rounding error would discount every cell.
    """
    s, u, v = _leading_triple(values)
    if loss.sigma_source == "fixed":
        return s, u, v, float(loss.sigma)
    try:
        sigma = estimate_scale_mad(values - s * np.outer(u, v))
    except ValueError:
        if np.isinf(loss.theta):
            return s, u, v, 1.0  # squared loss: the scale cancels from every update
        raise
    size = float(np.abs(values).max())
    if np.isfinite(loss.theta) and sigma <= 1e-10 * size:
        raise ValueError(
            f"residual scale {sigma:.3e} is at the rounding level of the data (max |x| {size:.3e}); "
            f"a robust fit needs noisy data or a fixed sigma"
        )
    return s, u, v, sigma


def spline_penalties(X: ObservedMatrix) -> tuple[np.ndarray, np.ndarray]:
    """The spline penalty pair (Omega_u, Omega_v) on the row and column grids of X."""
    if min(X.shape) < 3:
        raise ValueError(
            f"a spline penalty needs at least 3 rows and 3 columns, got {X.shape[0]}x{X.shape[1]}"
        )
    return build_roughness_penalty(X.row_grid), build_roughness_penalty(X.col_grid)


def _as_observed(X) -> ObservedMatrix:
    return X if isinstance(X, ObservedMatrix) else ObservedMatrix(np.asarray(X, dtype=float))


def _require_complete(X: ObservedMatrix, what: str) -> None:
    if not X.is_complete:
        raise ValueError(f"{what} requires a complete matrix; use fit_with_missing for masked data")


def _select_and_solve(kernel: ConditionalKernel, grid: LambdaGrid):
    """(lambda, GcvTrace, update) of a selecting half-step: one eigendecomposition
    scores the whole grid, and the same system solves at the chosen lambda."""
    scores, traces = kernel.scores(grid)
    lam, trace = select_lambda(grid, scores=scores, traces=traces)
    return lam, trace, kernel.solve(lam)


def _irls_rank_one(values, omegas, loss: RobustLossSpec, grid: LambdaGrid, opts: FitOptions) -> ComponentPair:
    values = np.asarray(values, dtype=float)
    spec0 = TwoWayPenaltySpec(*omegas)

    s, u, v, sigma = fit_start(values, loss)
    theta = float(loss.theta)

    selecting_possible = len(grid) > 1
    lam_u = lam_v = (0.0 if selecting_possible else grid.values[0])
    trace_v = trace_u = None

    def objective(s_, u_, v_, lu, lv):
        return huber_objective(values, s_, u_, v_, theta, sigma, spec0.with_lambdas(lu, lv))

    f_prev = objective(s, u, v, lam_u, lam_v)
    history = {
        "objective": [],
        "half_objective": [],
        "lambda_u": [],
        "lambda_v": [],
        "sigma": sigma,
        "theta": theta,
        "initial_objective": f_prev,
        "lambda_freeze_after": opts.lambda_freeze_after,
    }

    converged = False
    iterations = 0
    for it in range(1, opts.max_iter + 1):
        iterations = it
        freeze = opts.lambda_freeze_after
        selecting = selecting_possible and (freeze is None or it <= freeze)

        w = loss.weights(values - s * np.outer(u, v), sigma)
        if selecting:
            lam_v, trace_v, v_new = _select_and_solve(
                ConditionalKernel(values, u, w, spec0.with_lambdas(lambda_u=lam_u)), grid)
        else:
            v_new = update_v_given_u(values, u, w, spec0.with_lambdas(lam_u, lam_v))
        s_new = float(np.linalg.norm(v_new))
        if s_new == 0.0:
            s = 0.0
            converged = True
            break
        s, v = s_new, v_new / s_new
        history["half_objective"].append(objective(s, u, v, lam_u, lam_v))

        w = loss.weights(values - s * np.outer(u, v), sigma)
        if selecting:
            lam_u, trace_u, u_new = _select_and_solve(
                ConditionalKernel.for_u(values, v, w, spec0.with_lambdas(lambda_v=lam_v)), grid)
        else:
            u_new = update_u_given_v(values, v, w, spec0.with_lambdas(lam_u, lam_v))
        s_new = float(np.linalg.norm(u_new))
        if s_new == 0.0:
            s = 0.0
            converged = True
            break
        s, u = s_new, u_new / s_new

        f = objective(s, u, v, lam_u, lam_v)
        history["objective"].append(f)
        history["half_objective"].append(f)
        history["lambda_u"].append(lam_u)
        history["lambda_v"].append(lam_v)
        if abs(f - f_prev) <= opts.tol * max(abs(f_prev), abs(f), 1e-12):
            converged = True
            f_prev = f
            break
        f_prev = f

    u, v = _sign_fix(u, v)
    history["gcv_trace_v"] = trace_v
    history["gcv_trace_u"] = trace_u
    return ComponentPair(
        s=s,
        u=u,
        v=v,
        lambda_u=lam_u,
        lambda_v=lam_v,
        iterations=iterations,
        final_objective=f_prev,
        converged=converged,
        history=history,
    )


def fit_rank_one_robrsvd(
    X,
    loss: RobustLossSpec = None,
    penalty_grid: LambdaGrid = None,
    opts: FitOptions = None,
    omegas=None,
) -> ComponentPair:
    """Robust regularized rank-one fit of a complete matrix.

    Huber weights bound the influence of outlying cells; the roughness
    penalties on both singular vectors are tuned by nested GCV grid search.
    Non-convergence is reported through ``converged=False``, never silently.
    """
    X = _as_observed(X)
    _require_complete(X, "fit_rank_one_robrsvd")
    loss = RobustLossSpec() if loss is None else loss
    grid = LambdaGrid.log_default() if penalty_grid is None else penalty_grid
    opts = FitOptions() if opts is None else opts
    return _irls_rank_one(X.values, spline_penalties(X) if omegas is None else omegas, loss, grid, opts)


def fit_rank_one_rsvd(
    X,
    penalty_grid: LambdaGrid = None,
    opts: FitOptions = None,
    omegas=None,
) -> ComponentPair:
    """Regularized (nonrobust) rank-one fit: the squared-loss special case.

    Identical loop with the weights pinned at 2, i.e. a Huber loss with an
    infinite threshold.
    """
    return fit_rank_one_robrsvd(X, squared_loss_spec(), penalty_grid, opts, omegas)


def fit_rank_one_svd(X) -> ComponentPair:
    """Best rank-one approximation in the Frobenius norm: the leading SVD triple.

    The plain unpenalized, unweighted baseline, computed by LAPACK; it is the
    same triple every IRLS fit starts from. A zero matrix gives s = 0 with
    the first unit vectors.
    """
    X = _as_observed(X)
    _require_complete(X, "fit_rank_one_svd")
    s, u, v = _leading_triple(X.values)
    return ComponentPair(s=s, u=u, v=v, iterations=0, converged=True,
                         final_objective=float(np.sum((X.values - s * np.outer(u, v)) ** 2)))


def _check_method(method: str) -> None:
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {', '.join(METHODS)}")


def rank_one_fit(X, method: str, loss=None, penalty_grid=None, opts=None, omegas=None) -> ComponentPair:
    """Dispatch a rank-one fit by method name, one of ``METHODS``."""
    _check_method(method)
    if method == "svd":
        return fit_rank_one_svd(X)
    if method == "rsvd":
        return fit_rank_one_rsvd(X, penalty_grid, opts, omegas)
    return fit_rank_one_robrsvd(X, loss, penalty_grid, opts, omegas)


def fit(
    X,
    method: str = "robrsvd",
    rank: int = 1,
    loss: RobustLossSpec = None,
    penalty_grid: LambdaGrid = None,
    opts: FitOptions = None,
    imputation=None,
) -> Decomposition:
    """Sequential rank-``rank`` decomposition by deflation.

    Each pair is fitted to the residual left by the previous pairs, so every
    pair gets its own GCV-selected smoothing. Matrices with missing cells
    are handled by iterative imputation: while extracting component k the
    missing cells ride along at the running rank-k reconstruction.
    """
    X = _as_observed(X)
    m, n = X.shape
    if not 1 <= rank <= min(m, n):
        raise ValueError(f"rank must be between 1 and {min(m, n)}, got {rank}")
    _check_method(method)
    omegas = None if method == "svd" else spline_penalties(X)

    components = []
    resid = X.values.copy()
    for k in range(rank):
        Xk = ObservedMatrix(resid, X.mask, X.row_grid, X.col_grid)
        try:
            if Xk.is_complete:
                pair = rank_one_fit(Xk, method, loss, penalty_grid, opts, omegas)
            else:
                pair, _ = imputing.fit_with_missing(
                    Xk, method, loss=loss, penalty_grid=penalty_grid, opts=opts,
                    omegas=omegas, imputation=imputation,
                )
        except Exception as exc:
            raise RuntimeError(f"component {k + 1} failed: {exc}") from exc
        components.append(pair)
        resid = np.where(X.mask, resid - pair.reconstruction(), 0.0)

    return Decomposition(tuple(components), ResidualMatrix(resid, X.mask), method)
