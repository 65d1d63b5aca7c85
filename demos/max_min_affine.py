"""Max-min-affine form: center-free piecewise-linear models.

A max-norm component with nonpositive norm coefficients rewrites exactly as
a max of minima of 2d affine pieces.  The fitter solves the constrained
initial problem, refines the max-norm component like every other variant,
projects it back onto its cone, prunes it, and converts: the final blocks
are the exact rewrite of the final pieces.  Pruning usually discards most
blocks.
"""

import numpy as np

from dcreg import (MAX_MIN_AFFINE, Dataset, FitConfig, LINF, eval_max, eval_mma,
                   eval_model, fit_dcf, fvu, to_max_min_affine)

rng = np.random.default_rng(7)
n = 800
X = rng.uniform(0.0, 6.0, (n, 1))
y = X[:, 0] * np.sin(X[:, 0]) + 0.1 * rng.standard_normal(n)

result = fit_dcf(Dataset(X, y), FitConfig(variant=MAX_MIN_AFFINE, kind=LINF, seed=4))
model = result.final_model

grid = np.linspace(0.0, 6.0, 1500)[:, None]
truth = grid[:, 0] * np.sin(grid[:, 0])

# the conversion identity on the pre-refinement parameters
source = result.initial_model.component
grid_std = result.initial_model.transform_x(grid)
gap = np.max(np.abs(eval_mma(to_max_min_affine(source), grid_std)
                    - eval_max(source, grid_std)))
print(f"conversion identity: max |max-min form - norm form| = {gap:.2e}")

# the same identity on the final model: its pieces and its blocks are one function
final_std = model.transform_x(grid)
gap = np.max(np.abs(eval_mma(model.mma, final_std) - eval_max(model.component, final_std)))
print(f"final model: max |blocks - pieces| = {gap:.2e}")

blocks, inner = model.mma.biases.shape
print(f"blocks after pruning: {blocks} (from {result.partition.n_centers}), "
      f"{inner} inner pieces each")
print(f"test FVU: {fvu(eval_model(model, grid), truth):.4f}")
print(f"norm-coefficient sign violation of the stage-1 solution: "
      f"{result.cone_violation_max:.2e}")
