"""Shape-restricted fitting: three ways to keep the estimate convex.

Zeroing the norm coefficient gives plain max-affine regression; allowing a
nonnegative norm coefficient or constraining the ReLU pair (u >= -v) give
richer convex classes.  All three produce certifiably convex functions.
"""

import numpy as np

from dcreg import (CONVEX_MAX_AFFINE, CONVEX_NORM, CONVEX_PLUS, Dataset,
                   FitConfig, L2, PLUS, eval_model, fit_dcf, fvu)

rng = np.random.default_rng(5)
n = 1500
X = rng.uniform(-1, 1, (n, 2))
y = np.sum(X * X, axis=1) + 0.05 * rng.standard_normal(n)
train = Dataset(X, y)

test_X = rng.uniform(-1, 1, (4000, 2))
test_f = np.sum(test_X * test_X, axis=1)

a = rng.uniform(-1, 1, (20000, 2))
b = rng.uniform(-1, 1, (20000, 2))

print(f"target ||x||^2 on [-1,1]^2, n={n}, noise 0.05\n")
for variant, kind in ((CONVEX_MAX_AFFINE, L2), (CONVEX_NORM, L2),
                      (CONVEX_PLUS, PLUS)):
    result = fit_dcf(train, FitConfig(variant=variant, kind=kind, seed=2))
    model = result.final_model
    test_fvu = fvu(eval_model(model, test_X), test_f)
    # certify midpoint convexity on random segment midpoints
    defect = np.max(eval_model(model, 0.5 * (a + b))
                    - 0.5 * (eval_model(model, a) + eval_model(model, b)))
    print(f"{variant:18s} K={result.partition.n_centers:3d} "
          f"pieces={model.component.n_pieces:3d} FVU={test_fvu:.4f} "
          f"max midpoint defect={defect:.2e}")

print("\nMidpoint defects at float-rounding size certify convexity; the")
print("parameter cones make the property structural, not approximate.")
