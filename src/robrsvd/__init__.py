"""Robust regularized singular value decomposition for two-way functional data.

Sequential rank-one approximations of a matrix whose rows and columns both
sample smooth functions: a Huber loss bounds the influence of outlying
cells, rows, or blocks, roughness penalties on both singular vectors keep
them smooth, and generalized cross-validation picks the two smoothing
parameters. A missing cell is a zero weight in the same fit, and plain SVD
and squared-loss regularized SVD baselines are included for comparison.
"""

from .matrices import ObservedMatrix
from .robust import (
    DEFAULT_THETA,
    RobustLossSpec,
    estimate_scale_mad,
    huber_psi,
    huber_rho,
    huber_weight,
    squared_loss_spec,
)
from .penalties import (
    TwoWayPenaltySpec,
    build_roughness_penalty,
    two_way_penalty,
)
from .splines import SplineFunction, interpolate
from .updates import ConditionalKernel, DegenerateSystemError
from .selection import GcvRecord, GcvTrace, LambdaGrid
from .decompose import (
    ComponentPair,
    Decomposition,
    FitOptions,
    fit,
    fit_rank_one_robrsvd,
    fit_rank_one_rsvd,
    fit_rank_one_svd,
    huber_objective,
)
from .simulate import (
    SimResult,
    SimScenario,
    SimTruth,
    generate,
    mask_random,
    metric_frobenius,
    metric_l2,
    metric_principal_angle,
    metric_singular_value,
    run_benchmark,
)
from .dataio import (
    MatrixFile,
    ParseError,
    energy_percentages,
    load,
    log_transform,
    matrix_to_json,
    save,
    save_dense_csv,
    save_hmd_triplet,
)

__version__ = "0.1.0"

__all__ = [
    "ObservedMatrix",
    "DEFAULT_THETA", "RobustLossSpec", "estimate_scale_mad",
    "huber_psi", "huber_rho", "huber_weight", "squared_loss_spec",
    "TwoWayPenaltySpec", "build_roughness_penalty",
    "two_way_penalty",
    "SplineFunction", "interpolate",
    "ConditionalKernel", "DegenerateSystemError",
    "GcvRecord", "GcvTrace", "LambdaGrid",
    "ComponentPair", "Decomposition", "FitOptions", "fit",
    "fit_rank_one_robrsvd", "fit_rank_one_rsvd", "fit_rank_one_svd", "huber_objective",
    "SimResult", "SimScenario", "SimTruth",
    "generate", "mask_random", "metric_frobenius", "metric_l2",
    "metric_principal_angle", "metric_singular_value", "run_benchmark",
    "MatrixFile", "ParseError", "energy_percentages", "load", "log_transform",
    "matrix_to_json", "save", "save_dense_csv", "save_hmd_triplet",
]
