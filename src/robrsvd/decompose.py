"""Rank-one robust regularized fits and sequential deflation.

The iteratively reweighted least squares engine alternates two conditional
regressions, v given u and u given v, written once as ``_half_step``; the
smoothing parameter of the side being updated is chosen by GCV (optionally
frozen after a few iterations), and the solution's norm becomes the running
singular value. After each half-step the residual X - s uv' is formed once,
for the objective and the next half-step's Huber weights. ``fit_start``
gives the SVD start and ``spline_penalties`` the penalty spec, built once
per fit. An infinite robustness threshold gives the nonrobust regularized
SVD; zero penalties then give the plain SVD. A missing cell has weight zero
and no term in the objective, so masked input runs the loop on its observed
cells, from its row-mean fill; complete input has every cell observed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .matrices import ObservedMatrix
from .penalties import TwoWayPenaltySpec, build_roughness_penalty, two_way_penalty
from .robust import RobustLossSpec, estimate_scale_mad, huber_rho, squared_loss_spec
from .selection import LambdaGrid
from .updates import ConditionalKernel

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
    and is recorded in the fit history. An iteration has converged when the
    objective f moves by at most tol * max(|f_prev|, |f|), plus c * eps *
    sum x^2 (observed cells; f is at most about that), c = 1, if f rose: f
    never rises at fixed lambda in exact arithmetic, and on exact low-rank
    input it cycles near 0 at the dense penalty's rounding (c = 1e-4 still
    cycled at 30x25). A fall gets no floor, which would stop least squares
    near sqrt(eps) of an exact fit. ``tol`` must be a number >= 0,
    ``max_iter`` at least 1 and ``lambda_freeze_after`` None or at least 1;
    ValueError names a value out of range.
    """

    tol: float = 1e-6
    max_iter: int = 100
    lambda_freeze_after: int = 5

    def __post_init__(self):
        if not self.tol >= 0:
            raise ValueError(f"tol must be a number >= 0, got {self.tol}")
        if not self.max_iter >= 1:
            raise ValueError(f"max_iter must be at least 1, got {self.max_iter}")
        if self.lambda_freeze_after is not None and not self.lambda_freeze_after >= 1:
            raise ValueError(f"lambda_freeze_after must be None or at least 1, got {self.lambda_freeze_after}")


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
    """Sequentially extracted components; pair k is fitted on the residual of 1..k-1.

    ``residual`` is what the components leave of the input: an
    ObservedMatrix with the input's mask and grids, 0 at missing cells.
    """

    components: tuple
    residual: ObservedMatrix
    method: str

    @property
    def singular_values(self) -> np.ndarray:
        return np.array([c.s for c in self.components])

    def left_vectors(self) -> np.ndarray:
        return np.column_stack([c.u for c in self.components])

    def right_vectors(self) -> np.ndarray:
        return np.column_stack([c.v for c in self.components])

    def reconstruction(self) -> np.ndarray:
        out = np.zeros(self.residual.shape)
        for c in self.components:
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
    if s_vec[0] == 0.0:  # constant vectors weight every row and column: a masked zero fit ends at s = 0
        m, n = values.shape
        return 0.0, np.full(m, m ** -0.5), np.full(n, n ** -0.5)
    u, v = _sign_fix(u_mat[:, 0], vt[0])
    return float(s_vec[0]), u, v


def fit_start(X, loss: RobustLossSpec) -> tuple[float, np.ndarray, np.ndarray, float]:
    """Where every fit starts: the leading SVD triple and the residual scale sigma.

    ``X`` is an ObservedMatrix or an array. A missing cell starts at the
    mean of the observed cells in its row, so every row and column needs an
    observed cell (ValueError names the empty ones). sigma is ``loss.sigma``
    when given, else the MAD of the triple's residuals at the observed cells
    only. A robust loss (finite theta) raises ValueError when that MAD is at
    the rounding level of the data (at most 1e-10 max|x|), as on noise-free
    input: weights scaled by rounding error would discount every cell.
    """
    X = _as_observed(X)
    obs_rows, obs_cols = X.mask.sum(axis=1), X.mask.sum(axis=0)
    if not (obs_rows.all() and obs_cols.all()):
        raise ValueError(
            f"every row and column needs at least one observed cell "
            f"(empty rows {np.flatnonzero(obs_rows == 0).tolist()}, "
            f"empty columns {np.flatnonzero(obs_cols == 0).tolist()})"
        )
    values = np.where(X.mask, X.values, (X.values.sum(axis=1) / obs_rows)[:, None])
    s, u, v = _leading_triple(values)
    if loss.sigma is not None:
        return s, u, v, float(loss.sigma)
    try:
        sigma = estimate_scale_mad((values - s * np.outer(u, v))[X.mask])
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


def spline_penalties(X: ObservedMatrix) -> TwoWayPenaltySpec:
    """The validated spline penalty spec at lambda 0 on the grids of X; ``with_lambdas`` derives the rest."""
    if min(X.shape) < 3:
        raise ValueError(
            f"a spline penalty needs at least 3 rows and 3 columns, got {X.shape[0]}x{X.shape[1]}"
        )
    return TwoWayPenaltySpec(build_roughness_penalty(X.row_grid), build_roughness_penalty(X.col_grid))


def _as_observed(X) -> ObservedMatrix:
    return X if isinstance(X, ObservedMatrix) else ObservedMatrix(np.asarray(X, dtype=float))


def _half_step(kernel: ConditionalKernel, grid: LambdaGrid, lam: float, selecting: bool):
    """(lambda, GcvTrace or None, s, unit vector) of one conditional regression.

    Selecting, one eigendecomposition scores the whole grid and the same
    system solves at the chosen lambda; frozen, it solves at ``lam``. s is
    the solution's norm; at s = 0 the vector is the zero solution.
    """
    trace = None
    if selecting:
        lam, trace = kernel.select(grid)
    x = kernel.solve(lam)
    s = float(np.linalg.norm(x))
    return lam, trace, s, (x / s if s else x)


def _irls_rank_one(X: ObservedMatrix, spec: TwoWayPenaltySpec, loss: RobustLossSpec, grid: LambdaGrid,
                   opts: FitOptions) -> ComponentPair:
    # a missing cell has weight 0 and no term in the objective; complete input
    # has an all-True mask, on which both are exact no-ops
    values, mask = X.values, X.mask
    s, u, v, sigma = fit_start(X, loss)
    theta = float(loss.theta)
    floor = float(np.finfo(float).eps * np.sum(values * values))  # see FitOptions; masked cells hold 0

    selecting_possible = len(grid) > 1
    lam_u = lam_v = (0.0 if selecting_possible else grid.values[0])
    trace_v = trace_u = None

    def evaluate(s_, u_, v_, lu, lv):
        # one residual per half-step gives the objective (= huber_objective) and the next weights
        r = values - s_ * np.outer(u_, v_)
        rho = np.where(mask, huber_rho(r / sigma, theta), 0.0)
        return sigma * sigma * float(np.sum(rho)) + two_way_penalty(s_ * u_, v_, spec.with_lambdas(lu, lv)), r

    f_prev, r = evaluate(s, u, v, lam_u, lam_v)
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
    for it in range(1, opts.max_iter + 1):  # max_iter >= 1, so ``it`` is always bound
        freeze = opts.lambda_freeze_after
        selecting = selecting_possible and (freeze is None or it <= freeze)

        kernel = ConditionalKernel(values, u, loss.weights(r, sigma) * mask, spec.with_lambdas(lambda_u=lam_u))
        lam_v, trace, s, v_new = _half_step(kernel, grid, lam_v, selecting)
        trace_v = trace or trace_v
        if s == 0.0:
            converged = True
            break
        v = v_new
        f_half, r = evaluate(s, u, v, lam_u, lam_v)
        history["half_objective"].append(f_half)

        kernel = ConditionalKernel.for_u(values, v, loss.weights(r, sigma) * mask, spec.with_lambdas(lambda_v=lam_v))
        lam_u, trace, s, u_new = _half_step(kernel, grid, lam_u, selecting)
        trace_u = trace or trace_u
        if s == 0.0:
            converged = True
            break
        u = u_new

        f, r = evaluate(s, u, v, lam_u, lam_v)
        history["objective"].append(f)
        history["half_objective"].append(f)
        history["lambda_u"].append(lam_u)
        history["lambda_v"].append(lam_v)
        converged = abs(f - f_prev) <= opts.tol * max(abs(f_prev), abs(f)) + (floor if f > f_prev else 0.0)
        f_prev = f
        if converged:
            break

    u, v = _sign_fix(u, v)
    history["gcv_trace_v"] = trace_v
    history["gcv_trace_u"] = trace_u
    return ComponentPair(
        s=s,
        u=u,
        v=v,
        lambda_u=lam_u,
        lambda_v=lam_v,
        iterations=it,
        final_objective=f_prev,
        converged=converged,
        history=history,
    )


def _check_method(method: str) -> None:
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {', '.join(METHODS)}")


def rank_one_fit(X, method: str, loss=None, penalty_grid=None, opts=None, spec=None) -> ComponentPair:
    """Rank-one fit by method name, one of ``METHODS``: where each name gets its loss, penalty and grid.

    - svd on complete input: the leading LAPACK triple.
    - svd on masked input: the squared loss with zero penalties on the grid (0,).
    - rsvd: the squared loss with the spline penalty pair.
    - robrsvd: ``loss`` (default ``RobustLossSpec()``) with the spline penalty pair.

    ``loss`` is read by robrsvd only, ``penalty_grid`` (default
    ``LambdaGrid.log_default()``) by rsvd and robrsvd. ``spec`` is the
    validated ``spline_penalties(X)`` when the caller has built it, as
    ``fit`` does once for all components; masked svd builds its zero spec.
    """
    _check_method(method)
    X = _as_observed(X)
    opts = FitOptions() if opts is None else opts
    if method == "svd":
        if X.is_complete:
            s, u, v = _leading_triple(X.values)
            return ComponentPair(s=s, u=u, v=v, iterations=0, converged=True,
                                 final_objective=float(np.sum((X.values - s * np.outer(u, v)) ** 2)))
        m, n = X.shape
        return _irls_rank_one(X, TwoWayPenaltySpec(np.zeros((m, m)), np.zeros((n, n))), squared_loss_spec(),
                              LambdaGrid((0.0,)), opts)
    if method == "rsvd":
        loss = squared_loss_spec()
    elif loss is None:
        loss = RobustLossSpec()
    grid = LambdaGrid.log_default() if penalty_grid is None else penalty_grid
    return _irls_rank_one(X, spline_penalties(X) if spec is None else spec, loss, grid, opts)


def fit_rank_one_robrsvd(X, loss: RobustLossSpec = None, penalty_grid: LambdaGrid = None,
                         opts: FitOptions = None) -> ComponentPair:
    """Robust regularized rank-one fit of a matrix, complete or with missing cells.

    Huber weights bound the influence of outlying cells; the roughness
    penalties on both singular vectors are tuned by nested GCV grid search.
    Missing cells have weight zero, so only observed cells are fitted.
    Non-convergence is reported through ``converged=False``, never silently.
    """
    return rank_one_fit(X, "robrsvd", loss, penalty_grid, opts)


def fit_rank_one_rsvd(X, penalty_grid: LambdaGrid = None, opts: FitOptions = None) -> ComponentPair:
    """Regularized (nonrobust) rank-one fit: the squared-loss special case.

    Identical loop with the weights pinned at 2, i.e. a Huber loss with an
    infinite threshold.
    """
    return rank_one_fit(X, "rsvd", penalty_grid=penalty_grid, opts=opts)


def fit_rank_one_svd(X, opts: FitOptions = None) -> ComponentPair:
    """Best rank-one approximation of the observed cells in the Frobenius norm.

    The plain unpenalized, unweighted baseline. On a complete matrix it is
    the leading SVD triple, computed by LAPACK; it is the same triple every
    IRLS fit starts from. A zero matrix, complete or masked, gives s = 0
    with constant unit vectors. On a masked matrix it is the IRLS loop under
    the squared loss with no penalty, i.e. alternating least squares on the
    observed cells (criss-cross regression, Gabriel & Zamir 1979), stopped
    by ``opts``.
    """
    return rank_one_fit(X, "svd", opts=opts)


def fit(
    X,
    method: str = "robrsvd",
    rank: int = 1,
    loss: RobustLossSpec = None,
    penalty_grid: LambdaGrid = None,
    opts: FitOptions = None,
) -> Decomposition:
    """Sequential rank-``rank`` decomposition by deflation.

    Each pair is fitted to the residual left by the previous pairs, so every
    pair gets its own GCV-selected smoothing. Missing cells have weight zero
    in every fit and stay masked, at 0, in the residual.
    """
    X = _as_observed(X)
    m, n = X.shape
    if not 1 <= rank <= min(m, n):
        raise ValueError(f"rank must be between 1 and {min(m, n)}, got {rank}")
    _check_method(method)
    spec = None if method == "svd" else spline_penalties(X)

    components = []
    resid = X
    for k in range(rank):
        try:
            pair = rank_one_fit(resid, method, loss, penalty_grid, opts, spec)
        except Exception as exc:
            raise RuntimeError(f"component {k + 1} failed: {exc}") from exc
        components.append(pair)
        resid = resid.with_values(resid.values - pair.reconstruction())

    return Decomposition(tuple(components), resid, method)
