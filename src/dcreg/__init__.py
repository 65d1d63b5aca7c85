"""Nonparametric Lipschitz regression with delta-convex function classes.

The estimator partitions the covariates with adaptive farthest-point
clustering, solves a constrained regularized least-squares problem over
per-cell affine-in-feature pieces, locally refines the resulting max-form
function, and finally prunes and recenters it.  Companion modules provide
constructive approximation baselines, classical competitors (k-NN,
Nadaraya-Watson, OLS), and an experiment harness.
"""

from .approx import (CoverSpec, MaxAffine, QuadraticMax, WeaklyDeltaApprox,
                     convex_taylor, eval_min_convex, fvu, grid_cover,
                     mcshane_lower, min_convex_upper, quad_lower,
                     quad_taylor_max_affine, quad_upper, smooth_lower,
                     smooth_upper, weakly_and_delta_max_affine)
from .baselines import (KnnModel, NwModel, OlsModel, kfold_cv, knn_cv_grid,
                        knn_predict, nw_cv_grid, nw_predict, ols_fit,
                        ols_predict)
from .data import (Dataset, DataError, ScalingSpec, SyntheticGen,
                   apply_scaling, load_csv)
from .experiment import ExperimentSpec, demo_figures, run_experiment
from .features import (FEATURE_KINDS, L1, L2, LINF, PLUS, FeatureConstants,
                       constants, feature_dim, phi)
from .fit import (FitConfig, FitResult, RegParams, STRONG, WEAK,
                  build_initial_objective, build_refine_objective,
                  default_reg_params, finalize, fit_complement, fit_convex,
                  fit_dcf, fit_diagnostics, fit_initial, fit_max_min_affine,
                  fit_symmetric, refine, reg_n_value)
from .model import (CONVEX_MAX_AFFINE, CONVEX_NORM, CONVEX_PLUS, COMPLEMENT,
                    MAX_MIN_AFFINE, SINGLE, SYMMETRIC, VARIANT_TABLE, Cone,
                    DcComponent, DcModel, MaxMinAffine, Variant, center,
                    eval_max, eval_mma, eval_model, eval_partitioned, lip_stat,
                    n_parameters, prune, symmetric_bias_center,
                    to_max_min_affine, validate_model, variant_spec)
from .partition import Partition, afpc, assign_cells, data_radii, khat
from .serialize import ModelFormatError, load_model, save_model
from .solver import (ObjectiveHandle, SolveReport, SolverAbort, SolverConfig,
                     lbfgs_minimize, penalty_objective, softmax_smooth,
                     softmax_weights)
from .targets import TargetFunction, empirical_lipschitz

__version__ = "0.1.0"
