"""How the smoothing parameter of one conditional update is chosen.

For a fixed left vector, each candidate lambda yields a penalized update of
the right vector; the GCV score compares it to the unpenalized update and
normalizes by the effective degrees of freedom (the hat-matrix trace). The
chosen lambda minimizes the score over the grid.
"""

import numpy as np

from robrsvd import ConditionalKernel, LambdaGrid
from robrsvd.decompose import fit_start
from robrsvd.penalties import TwoWayPenaltySpec, build_roughness_penalty
from robrsvd.robust import RobustLossSpec
from robrsvd.simulate import SimScenario, generate

result = generate(SimScenario(grid_size=(50, 50), noise_variance=1.0,
                              contamination="outlying_cells", seed=3))
X = result.data

# start where the full algorithm starts: the leading SVD triple and the MAD
# scale of its residuals
loss = RobustLossSpec()
s, u, v, sigma = fit_start(X, loss)
weights = loss.weights(X.values - s * np.outer(u, v), sigma)
print(f"SVD initialization: s = {s:.1f}, MAD residual scale = {sigma:.3f}")

spec = TwoWayPenaltySpec(build_roughness_penalty(X.row_grid),
                         build_roughness_penalty(X.col_grid))
# one eigendecomposition of the weighted penalty serves every candidate: in
# that basis the penalized update is diagonal in lambda, so the kernel scores
# the whole grid at once and picks the lambda with the smallest GCV score
kernel = ConditionalKernel(X, u, weights, spec)
chosen, trace = kernel.select(LambdaGrid.log_default(1e-8, 1e2, 15))

print(f"\n{'lambda':>12s} {'GCV':>14s} {'hat trace':>10s}")
for rec in trace.records:
    marker = "  <-- chosen" if rec.chosen else ""
    print(f"{rec.lam:12.3e} {rec.score:14.6e} {rec.hat_trace:10.3f}{marker}")

# the kernel that scored the grid also solves the update at the choice
v_new = kernel.solve(chosen)
print(f"\nselected lambda_v = {chosen:.3e}; the update's norm (next s) = {np.linalg.norm(v_new):.1f}")
print("small lambdas keep all degrees of freedom (trace near n); large ones "
      "shrink toward the two-dimensional null space of the roughness penalty")

trace.write_csv("gcv_trace_demo.csv")
print("full trace written to gcv_trace_demo.csv")
