"""Command-line interface: fit, predict, bench, demo, inspect.

Exit codes: 0 success, 2 usage error, 3 data error, 4 solver abort (or, for
bench, a failed cell).
"""

import argparse
import json
import logging
import sys

import numpy as np

from . import features, model as model_mod
from .data import (DataError, SyntheticGen, load_csv,
                   read_csv_matrix, SCALING_MODES, SYNTHETIC_TARGETS)
from .experiment import (ALL_ESTIMATORS, ExperimentSpec, demo_figures,
                         run_experiment, write_bench_outputs, write_csv)
from .fit import FitConfig, STRONG, WEAK, fit_dcf
from .serialize import ModelFormatError, load_bundle, save_model
from .solver import SolverAbort

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_SOLVER = 4

_VARIANTS = {
    "single": model_mod.SINGLE,
    "complement": model_mod.COMPLEMENT,
    "symmetric": model_mod.SYMMETRIC,
    "mma": model_mod.MAX_MIN_AFFINE,
    "convex-max-affine": model_mod.CONVEX_MAX_AFFINE,
    "convex-norm": model_mod.CONVEX_NORM,
    "convex-plus": model_mod.CONVEX_PLUS,
}


def _cmd_fit(args):
    dataset = load_csv(args.data, args.response_col)
    cfg = FitConfig(variant=_VARIANTS[args.variant], kind=args.kind,
                    theta2_mode=args.theta2, seed=args.seed)
    result = fit_dcf(dataset, cfg)
    save_model(result.final_model, args.out)
    preds = model_mod.eval_model(result.final_model, dataset.X)
    train_mse = float(np.mean((preds - dataset.y) ** 2))
    print(f"variant={args.variant} kind={args.kind} n={dataset.n} d={dataset.d} "
          f"K={result.partition.n_centers} "
          f"pieces={[c.n_pieces for c in result.final_model.components()]} "
          f"lip={model_mod.lip_stat(result.final_model):.6g} train_mse={train_mse:.6g} "
          f"violation={result.constraint_violation_max:.3g} out={args.out}")
    return EXIT_OK


def _cmd_predict(args):
    model, scaling = load_bundle(args.model)
    X = _load_features(args.data, model.d)
    if scaling is not None:
        X = scaling.transform_x(X)
    preds = model_mod.eval_model(model, X)
    if scaling is not None:
        preds = scaling.invert_y(preds)
    write_csv(args.out, ["prediction"], preds)
    print(f"wrote {len(preds)} predictions to {args.out}")
    return EXIT_OK


def _load_features(path, d):
    """Accept a features-only CSV (d columns) or one with a trailing response (d + 1)."""
    _, rows = read_csv_matrix(path)
    ncols = rows.shape[1]
    if ncols not in (d, d + 1):
        raise DataError(f"model expects {d} features, file has {ncols} columns "
                        f"(expected {d}, or {d + 1} with a trailing response)")
    return rows[:, :d]


def _cmd_bench(args):
    if args.spec:
        with open(args.spec) as fh:
            raw = json.load(fh)
        try:    # a spec that is not an object, or has unknown, ill-typed or invalid fields
            if not isinstance(raw, dict):
                raise TypeError("the spec is not a JSON object")
            synth = raw.pop("synthetic", None)
            spec = ExperimentSpec(synthetic=None if synth is None else SyntheticGen(**synth),
                                  **raw)
        except (TypeError, ValueError) as exc:
            raise DataError(f"malformed spec {args.spec}: {exc}") from None
    else:
        if args.target is None:
            raise DataError("bench needs --spec or synthetic flags (--target ...)")
        synth = SyntheticGen(target=args.target, d=args.d, noise_sigma=args.sigma)
        spec = ExperimentSpec(
            train_sizes=tuple(args.sizes), synthetic=synth,
            repetitions=args.reps, estimators=tuple(args.estimators),
            scaling=args.scaling, seed=args.seed, kind=args.kind,
            theta2_mode=args.theta2,
        )
    rows = run_experiment(spec, workers=args.workers)
    write_bench_outputs(rows, args.out, timings=args.timings)
    failed = sum(1 for r in rows if r["status"] != "ok")
    print(f"bench cells={len(rows)} failed={failed} out={args.out}")
    if failed:
        print(f"bench: {failed} of {len(rows)} cells failed; see the status column "
              f"of results.csv", file=sys.stderr)
        return EXIT_SOLVER
    return EXIT_OK


def _cmd_demo(args):
    out = demo_figures(args.out, seed=args.seed)
    print(f"demo CSVs written to {out}")
    return EXIT_OK


def _cmd_inspect(args):
    model, scaling = load_bundle(args.model)
    pieces = [c.n_pieces for c in model.components()]
    print(f"variant={model.variant} kind={model.component.kind} d={model.d}")
    print(f"centers={model.component.centers.shape[0]} pieces={pieces}")
    if model.mma is not None:
        print(f"mma_blocks={model.mma.n_blocks} inner_per_block={model.mma.biases.shape[1]}")
    print(f"parameters={model_mod.n_parameters(model)} "
          f"parameters_with_centers={model_mod.n_parameters(model, include_centers=True)}")
    print(f"lip_stat={model_mod.lip_stat(model):.6g} offset={model.offset:.6g}")
    own = "none" if model.x_shift is None else "std"
    print(f"scaling={own if scaling is None else scaling.mode}")   # outer map: older files
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(prog="dcreg",
                                     description="Lipschitz regression with "
                                                 "delta-convex function classes")
    parser.add_argument("--verbose", action="store_true", help="log fit diagnostics")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit", help="fit a model on a CSV dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--response-col", default=None)
    p.add_argument("--variant", choices=sorted(_VARIANTS), default="symmetric")
    p.add_argument("--kind", choices=features.FEATURE_KINDS, default=features.LINF)
    p.add_argument("--theta2", choices=(WEAK, STRONG), default=STRONG)
    p.add_argument("--scaling", choices=SCALING_MODES, default="std",
                   help="no effect (every fit standardizes); kept for older command lines")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("predict", help="predict with a saved model")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("bench", help="run a benchmark sweep")
    p.add_argument("--spec", help="experiment spec JSON")
    p.add_argument("--target", choices=SYNTHETIC_TARGETS)
    p.add_argument("--d", type=int, default=1)
    p.add_argument("--sigma", type=float, default=0.1)
    p.add_argument("--sizes", type=int, nargs="+", default=[256, 1024])
    p.add_argument("--reps", type=int, default=5)
    p.add_argument("--estimators", nargs="+", default=["dcf_symmetric", "knn"],
                   choices=ALL_ESTIMATORS)
    p.add_argument("--scaling", choices=SCALING_MODES, default="std",
                   help="covariate scaling of the baselines; a dcf fit standardizes its own")
    p.add_argument("--kind", choices=features.FEATURE_KINDS, default=features.LINF)
    p.add_argument("--theta2", choices=(WEAK, STRONG), default=STRONG)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--timings", action="store_true",
                   help="also write (non-deterministic) timings.csv")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("demo", help="emit approximation-band and fit CSVs")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_demo)

    p = sub.add_parser("inspect", help="summarize a saved model")
    p.add_argument("--model", required=True)
    p.set_defaults(func=_cmd_inspect)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else EXIT_USAGE
    if args.verbose:
        logging.basicConfig(level=logging.INFO, format="%(name)s %(message)s")
    try:
        return args.func(args)
    except (DataError, ModelFormatError, OSError, json.JSONDecodeError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except SolverAbort as exc:
        print(f"solver abort: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
