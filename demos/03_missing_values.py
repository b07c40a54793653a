"""Fitting through missing cells.

A missing cell gets weight zero in both conditional regressions of the fit,
so the rank-one model is fitted to the observed cells alone; its
reconstruction then fills the holes. On an exactly rank-one surface the
deleted cells are recovered almost perfectly.
"""

import numpy as np

from robrsvd import FitOptions, fit
from robrsvd.selection import LambdaGrid
from robrsvd.simulate import SimScenario, generate, mask_random, metric_l2

clean = generate(SimScenario(grid_size=(40, 40), noise_variance=0.0,
                             contamination="none", seed=11))
masked = mask_random(clean, count=100, seed=12)
X = masked.data
before = X.values.copy()
print(f"deleted {(~X.mask).sum()} of {X.mask.size} cells from an exact rank-one surface")

decomp = fit(X, "rsvd", penalty_grid=LambdaGrid((1e-12,)), opts=FitOptions(tol=1e-10))
pair = decomp.components[0]
filled = np.where(X.mask, X.values, decomp.reconstruction())

u_true = clean.truth.left[:, 0]
v_true = clean.truth.right[:, 0]
truth_at_missing = clean.data.values[~X.mask]
imputed = filled[~X.mask]

print(f"IRLS iterations: {pair.iterations} (converged: {pair.converged})")
print(f"L2 error of u: {metric_l2(pair.u, u_true):.2e}")
print(f"L2 error of v: {metric_l2(pair.v, v_true):.2e}")
print(f"singular value error: {abs(pair.s - 773.0):.2e}")
print(f"worst imputed-cell error: {np.max(np.abs(imputed - truth_at_missing)):.2e}")

# observed cells are never altered
assert np.array_equal(X.values, before)
print("observed cells untouched by the fit (bit-identical)")

# the same machinery runs when noise and outliers are present
noisy = mask_random(
    generate(SimScenario(grid_size=(40, 40), noise_variance=0.5,
                         contamination="outlying_cells", seed=13)),
    count=100, seed=14,
)
pair_rob = fit(noisy.data, "robrsvd").components[0]
print(f"\nnoisy + contaminated + masked: {pair_rob.iterations} IRLS iterations, "
      f"L2(u) = {metric_l2(pair_rob.u, u_true):.4f}")
