"""Benchmark orchestration and demo-figure CSV emission.

Benchmarks score estimators by mean squared error against held-out responses
(for synthetic sources, a fresh noisy draw from the same generator), in
original response units.  A perfect estimator therefore floors at the noise
variance.
"""

import csv
import logging
from collections.abc import Mapping
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path
from timeit import default_timer as timer

import numpy as np

from . import approx, baselines, features, model as model_mod, targets
from .data import DataError, Dataset, SyntheticGen, apply_scaling, load_csv, SCALING_MODES, STD
from .fit import FitConfig, STRONG, fit_dcf
from .partition import data_radii

log = logging.getLogger(__name__)

DCF_ESTIMATORS = {
    "dcf": model_mod.SINGLE,
    "dcf_complement": model_mod.COMPLEMENT,
    "dcf_symmetric": model_mod.SYMMETRIC,
    "dcf_mma": model_mod.MAX_MIN_AFFINE,
    "dcf_convex": model_mod.CONVEX_MAX_AFFINE,
}
BASELINE_ESTIMATORS = ("knn", "nw_gaussian", "nw_triweight", "ols")
ALL_ESTIMATORS = tuple(DCF_ESTIMATORS) + BASELINE_ESTIMATORS

RESULT_COLUMNS = [
    "estimator", "n", "rep", "status", "test_mse",
    "params_before", "params_after", "n_centers",
    "cell_size_min", "cell_size_median", "cell_size_max", "cells_below_d",
]
TIMING_COLUMNS = ["estimator", "n", "rep", "train_time_s", "predict_time_per_1000_s"]


@dataclass(frozen=True)
class ExperimentSpec:
    """What to run: a data source, train sizes, estimators, scaling, seed."""

    train_sizes: tuple
    synthetic: SyntheticGen = None
    csv_path: str = None
    repetitions: int = 5
    estimators: tuple = ("dcf_symmetric", "knn", "nw_gaussian", "ols")
    scaling: str = STD
    seed: int = 0
    test_size: int = 2000
    kind: str = features.LINF
    theta2_mode: str = STRONG

    def __post_init__(self):
        if (self.synthetic is None) == (self.csv_path is None):
            raise ValueError("exactly one of synthetic/csv_path must be set")
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        unknown = [e for e in self.estimators if e not in ALL_ESTIMATORS]
        if unknown:
            raise ValueError(f"unknown estimators {unknown}; choose from {ALL_ESTIMATORS}")
        if self.scaling not in SCALING_MODES:
            raise ValueError(f"unknown scaling {self.scaling!r}; expected one of {SCALING_MODES}")
        FitConfig(kind=self.kind, theta2_mode=self.theta2_mode)   # checks kind and mode
        object.__setattr__(self, "train_sizes", tuple(int(n) for n in self.train_sizes))
        if min(self.train_sizes, default=1) < 1 or self.test_size < 1:
            raise ValueError("train and test sizes must be >= 1")
        object.__setattr__(self, "estimators", tuple(self.estimators))


def _cell_seed(base_seed, n_idx, rep):
    # One data stream per (size, repetition); shared by all estimators.
    return int(np.random.SeedSequence((base_seed, n_idx, rep)).generate_state(1)[0])


def _draw_cell_data(spec: ExperimentSpec, full: Dataset, n_idx: int, rep: int):
    """(train Dataset, test X, test responses) for one experiment cell."""
    n = spec.train_sizes[n_idx]
    seed = _cell_seed(spec.seed, n_idx, rep)
    if spec.synthetic is not None:
        train, _ = spec.synthetic.sample(n, seed)
        test, _ = spec.synthetic.sample(spec.test_size, seed + 1)
        return train, test.X, test.y
    perm = np.random.default_rng(seed).permutation(full.n)
    train = full.subset(perm[:n])
    test = full.subset(perm[n:])
    return train, test.X, test.y


def _fit_predict_cell(estimator, spec, train_scaled, seed):
    """Train one estimator on scaled data; returns (predict(X), info dict)."""
    info = {}
    if estimator in DCF_ESTIMATORS:
        variant = DCF_ESTIMATORS[estimator]
        # A kind the variant does not take falls back to the max norm, which all take.
        kind = spec.kind if spec.kind in model_mod.variant_spec(variant).kinds else features.LINF
        cfg = FitConfig(variant=variant, kind=kind, theta2_mode=spec.theta2_mode,
                        seed=seed)
        result = fit_dcf(train_scaled, cfg)
        info["params_before"] = model_mod.n_parameters(result.initial_model)
        info["params_after"] = model_mod.n_parameters(result.final_model)
        info["n_centers"] = result.partition.n_centers
        sizes = result.partition.cell_sizes()
        info["cell_size_min"] = int(sizes.min())
        info["cell_size_median"] = float(np.median(sizes))
        info["cell_size_max"] = int(sizes.max())
        info["cells_below_d"] = int(np.sum(sizes < train_scaled.d))
        return (lambda Xq: model_mod.eval_model(result.final_model, Xq)), info

    if estimator == "knn":
        grid = baselines.knn_cv_grid(train_scaled.n, train_scaled.d)
        k = baselines.kfold_cv(train_scaled, grid, baselines.knn_cv_fold, seed=seed)
        mdl = baselines.KnnModel(train_scaled, k)
        info["hyperparameter"] = k
        return (lambda Xq: baselines.knn_predict(mdl, Xq)), info

    if estimator in ("nw_gaussian", "nw_triweight"):
        kernel = (baselines.GAUSSIAN_KERNEL if estimator == "nw_gaussian"
                  else baselines.TRIWEIGHT_KERNEL)
        r_x, r_y = data_radii(train_scaled)
        grid = baselines.nw_cv_grid(max(r_x, 1e-12), max(r_y, 1e-12),
                                    train_scaled.n, train_scaled.d)
        h = baselines.kfold_cv(train_scaled, grid, baselines.nw_cv_fold(kernel), seed=seed)
        mdl = baselines.NwModel(train_scaled, kernel, h)
        info["hyperparameter"] = h
        return (lambda Xq: baselines.nw_predict(mdl, Xq)), info

    mdl = baselines.ols_fit(train_scaled)
    return (lambda Xq: baselines.ols_predict(mdl, Xq)), info


def _run_cell(spec, full, estimator, n_idx, rep):
    n = spec.train_sizes[n_idx]
    row = {"estimator": estimator, "n": n, "rep": rep, "status": "ok"}
    try:
        train, test_X, test_targets = _draw_cell_data(spec, full, n_idx, rep)
        # A dcf model carries its own standardization and takes raw rows, as
        # `dcreg fit` does; only the baselines take rows scaled by spec.scaling.
        if estimator in DCF_ESTIMATORS:
            train_scaled, transform_x, invert_y = train, (lambda X: X), (lambda y: y)
        else:
            train_scaled, scaling = apply_scaling(train, spec.scaling)
            transform_x, invert_y = scaling.transform_x, scaling.invert_y
        seed = _cell_seed(spec.seed, n_idx, rep)
        t0 = timer()
        predict, info = _fit_predict_cell(estimator, spec, train_scaled, seed)
        row["train_time_s"] = timer() - t0
        t1 = timer()
        preds = invert_y(predict(transform_x(test_X)))
        row["predict_time_per_1000_s"] = (timer() - t1) * 1000.0 / len(preds)
        row["test_mse"] = float(np.mean((preds - test_targets) ** 2))
        row.update(info)
    except Exception as exc:  # keep the sweep alive; mark the cell
        log.warning("cell failed estimator=%s n=%d rep=%d error=%s",
                    estimator, n, rep, exc)
        log.debug("traceback of the failed cell", exc_info=True)
        row["status"] = f"failed: {exc}"
    return row


def run_experiment(spec: ExperimentSpec, workers: int = 1):
    """Run all (estimator, size, repetition) cells; returns a list of row dicts.

    Each cell derives its RNG stream from (seed, size index, repetition), so
    rows are reproducible and independent of the worker count.  A train size
    that leaves a CSV dataset no test rows is a ``DataError``, before any cell.
    """
    full = load_csv(spec.csv_path) if spec.csv_path is not None else None
    n = max(spec.train_sizes, default=0)
    if full is not None and n >= full.n:
        raise DataError(f"train size {n} leaves no test rows ({spec.csv_path} has {full.n})")
    cells = [(est, i, rep)
             for est in spec.estimators
             for i in range(len(spec.train_sizes))
             for rep in range(spec.repetitions)]
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(lambda c: _run_cell(spec, full, *c), cells))
    else:
        rows = [_run_cell(spec, full, *c) for c in cells]
    return rows


def aggregate_rows(rows):
    """Mean and sample stddev of test MSE per (estimator, n), ok cells only."""
    groups = {}
    for row in rows:
        if row["status"] != "ok":
            continue
        groups.setdefault((row["estimator"], row["n"]), []).append(row["test_mse"])
    out = []
    for (est, n), vals in sorted(groups.items()):
        arr = np.asarray(vals)
        sd = float(np.std(arr, ddof=1)) if arr.size > 1 else 0.0
        out.append({"estimator": est, "n": n, "mean_mse": float(arr.mean()),
                    "stddev_mse": sd, "cells": int(arr.size)})
    return out


def write_csv(path, columns, rows):
    """Deterministic CSV: '.' decimals, '\\n' line endings, header always.

    Each row is a mapping from column name to value (a missing key writes an
    empty cell) or a sequence of values in column order.  Floats are written
    as their repr, None as an empty cell.  With one column, ``rows`` may also
    be a 1-D float64 array of its values.
    """
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        if (isinstance(rows, np.ndarray) and rows.ndim == 1 and rows.dtype == np.float64
                and len(columns) == 1):
            # repr is what csv writes for a float; no float repr needs quoting.
            if rows.size:
                fh.write("\n".join(map(repr, rows.tolist())) + "\n")
            return
        # csv writes str(value): repr for floats (numpy's float64 included)
        writer.writerows([row.get(c) for c in columns] if isinstance(row, Mapping) else row
                         for row in rows)


def write_bench_outputs(rows, out_dir, timings=False):
    """Write results.csv and summary.csv (and timings.csv when asked).

    Timing columns are non-deterministic, so they are kept out of the default
    outputs to preserve bit-reproducibility under a fixed seed.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_csv(out / "results.csv", RESULT_COLUMNS, rows)
    write_csv(out / "summary.csv",
              ["estimator", "n", "mean_mse", "stddev_mse", "cells"],
              aggregate_rows(rows))
    if timings:
        write_csv(out / "timings.csv", TIMING_COLUMNS, rows)


# ---------------------------------------------------------------------------
# demo figures

_GRID_COLUMNS = ["x", "f", "fhat", "fcheck", "band_lo", "band_hi", "fvu"]


def _band_rows(x, f_vals, fhat, fcheck, band):
    fv = approx.fvu(fhat, f_vals)
    return [{"x": float(xi), "f": float(fi), "fhat": float(hi), "fcheck": float(ci),
             "band_lo": band[0], "band_hi": band[1], "fvu": fv}
            for xi, fi, hi, ci in zip(x, f_vals, fhat, fcheck)]


def demo_figures(out_dir, n_grid: int = 1000, seed: int = 0):
    """Emit the approximation-band and variant-fit CSV bundle.

    For both one-dimensional benchmark targets on [0, 6] with a 10-point
    equidistant cover: the norm-feature lower/upper bands, the quadratic
    bands (plus the gradient band for the smooth target), and the three
    fitted-variant curves on the noiseless grid.  FVU values land in
    summary.csv.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    grid = np.linspace(0.0, 6.0, n_grid)[:, None]
    cover = approx.grid_cover(0.0, 6.0, 10)
    summary = []

    specs = [("xsinx", targets.xsinx_target()), ("pw_linear", targets.pw_linear_target())]
    for name, target in specs:
        f_vals = target(grid)
        lam = targets.empirical_lipschitz(f_vals, grid) * 1.01
        target = replace(target, lipschitz=lam)
        eps = cover.eps

        lower = approx.mcshane_lower(target, cover, features.L2)
        upper = approx.min_convex_upper(target, cover, features.L2)
        fhat = model_mod.eval_max(lower, grid)
        fcheck = approx.eval_min_convex(upper, grid)
        rows = _band_rows(grid[:, 0], f_vals, fhat, fcheck, (0.0, 2.0 * lam * eps))
        write_csv(out / f"bands_norm_{name}.csv", _GRID_COLUMNS, rows)
        summary.append({"target": name, "construction": "norm_lower",
                        "fvu": approx.fvu(fhat, f_vals)})
        summary.append({"target": name, "construction": "norm_upper",
                        "fvu": approx.fvu(fcheck, f_vals)})

        qlo = approx.quad_lower(target, cover)
        qup = approx.quad_upper(target, cover)
        rows = _band_rows(grid[:, 0], f_vals, qlo(grid), qup(grid),
                          (-lam * eps / 4.0, 2.0 * lam * eps))
        write_csv(out / f"bands_quad_{name}.csv", _GRID_COLUMNS, rows)
        summary.append({"target": name, "construction": "quad_lower",
                        "fvu": approx.fvu(qlo(grid), f_vals)})

        if target.smoothness is not None:
            slo = approx.smooth_lower(target, cover)
            sup = approx.smooth_upper(target, cover)
            nu = target.smoothness
            rows = _band_rows(grid[:, 0], f_vals, slo(grid), sup(grid),
                              (0.0, 2.0 * nu * eps * eps))
            write_csv(out / f"bands_smooth_{name}.csv", _GRID_COLUMNS, rows)
            summary.append({"target": name, "construction": "smooth_lower",
                            "fvu": approx.fvu(slo(grid), f_vals)})

        train = Dataset(grid, f_vals)
        fit_rows = [{"x": float(v)} for v in grid[:, 0]]
        for frow, fv in zip(fit_rows, f_vals):
            frow["f"] = float(fv)
        for label in (model_mod.SINGLE, model_mod.COMPLEMENT, model_mod.SYMMETRIC):
            cfg = FitConfig(variant=label, kind=features.LINF, seed=seed)
            result = fit_dcf(train, cfg)
            preds = model_mod.eval_model(result.final_model, grid)
            for frow, p in zip(fit_rows, preds):
                frow[f"fhat_{label}"] = float(p)
            summary.append({"target": name, "construction": f"fit_{label}",
                            "fvu": approx.fvu(preds, f_vals)})
        write_csv(out / f"fits_{name}.csv",
                  ["x", "f", "fhat_single", "fhat_complement", "fhat_symmetric"],
                  fit_rows)

    write_csv(out / "summary.csv", ["target", "construction", "fvu"], summary)
    return out
