"""One run of one benchmark workload, in a process of its own.

``run.py`` starts this file with the BLAS thread variables already set:

    python3 perfbench/worker.py --workload fit_1d --seed 0 --seconds 30 \\
        --trace 0 --workdir DIR [--spans FILE] [--setup-only]

It builds the workload's inputs from ``--seed`` (set-up), then repeats whole
rounds of the workload's operations while the next round is expected to end
within ``--seconds`` (at least one round), checks every output, and prints
one JSON object as its last line of standard output.
"""

import time

# Set-up time counts from here, so it includes importing numpy and dcreg.
STARTED = time.perf_counter()

import argparse
import contextlib
import csv
import io
import json
import resource
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

import dcreg
import dcreg.cli
import dcreg.data
import dcreg.experiment
import dcreg.fit
import dcreg.model
import dcreg.serialize

import checks
import tracing

SIGMA = 0.1           # noise of every training response
TARGET_SEED = 2048    # fixes the random d=8 target; --seed draws the samples
# Every workload trains on the same sets, with the same fit seed, in every
# run; --seed draws the rows that are predicted.  Drawn from --seed, the
# training sets would swing every end-to-end figure from seed to seed: in
# fit_1d about one symmetric stage-2 solve in five converges early instead of
# running to the iteration cap, and in fit_8d the fit times and the pieces
# kept (hence predict throughput and peak RSS) move by 10 to 25 percent.
TRAINING_SEED = 0


@dataclass(frozen=True)
class Sizes:
    n_1d_symmetric: int = 1024  # training rows of each fit
    n_1d_mma: int = 2048
    n_8d: int = 256             # K is about 85
    n_cli_fit: int = 128        # rows of the model predict_cli fits in its set-up
    n_test: int = 20000         # held-out rows of the fit workloads
    n_predict: int = 50000      # rows of the features CSV that dcreg predict reads
    n_pairs: int = 2000         # midpoint-convexity pairs
    min_eval_s: float = 0.2     # eval_model is repeated at least this long per model
    datasets: int = 3           # training sets per fit round


FULL = Sizes()

# (variant, target, Sizes field with its training rows) of each fit
FITS = {
    "fit_1d": (("symmetric", "xsinx", "n_1d_symmetric"),
               ("max_min_affine", "xsinx", "n_1d_mma")),
    "fit_8d": (("single", "dma", "n_8d"), ("convex_max_affine", "normsq", "n_8d")),
}
WORKLOADS = (*FITS, "predict_cli")


def xsinx(X):
    return X[:, 0] * np.sin(X[:, 0])


def normsq(X):
    return np.sum(X * X, axis=1)


def dma_target(d):
    """A fixed random difference of two 6-plane max-affine functions.

    Every plane has slope norm 2, so the target is 4-Lipschitz.
    """
    rng = np.random.default_rng(TARGET_SEED)

    def planes():
        A = rng.standard_normal((6, d))
        A *= 2.0 / np.linalg.norm(A, axis=1, keepdims=True)
        return A, rng.uniform(-0.5, 0.5, 6)

    (A, a), (B, b) = planes(), planes()
    return lambda X: (X @ A.T + a).max(axis=1) - (X @ B.T + b).max(axis=1)


def write_rows(path, M):
    """Numeric CSV without header; repr keeps every double exact."""
    with open(path, "w") as fh:
        fh.writelines(",".join(map(repr, row)) + "\n" for row in M.tolist())


def read_predictions(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if rows[:1] != [["prediction"]]:
        raise ValueError(f"{path}: unexpected header {rows[:1]!r}")
    return np.array([float(r[0]) for r in rows[1:]])


def cli(argv):
    """``dcreg`` in-process, its own printing swallowed; returns the exit code."""
    with contextlib.redirect_stdout(io.StringIO()):
        return dcreg.cli.main(argv)


def timed_eval(model, X, min_s):
    """Median seconds of eval_model over X, repeated >= 3 times and >= min_s."""
    times = []
    start = perf_counter()
    while len(times) < 3 or perf_counter() - start < min_s:
        t0 = perf_counter()
        dcreg.model.eval_model(model, X)
        times.append(perf_counter() - t0)
    return statistics.median(times)


# ---------------------------------------------------------------------------
# fit_1d and fit_8d

def setup_fits(workload, seed, sizes, workdir):
    """Training CSVs written here and read back by data.load_csv, plus held-out rows."""
    rng = np.random.default_rng(seed)
    if workload == "fit_1d":
        low, high, d = 0.0, 6.0, 1
        targets = {"xsinx": xsinx}
    else:
        low, high, d = -1.0, 1.0, 8
        targets = {"dma": dma_target(8), "normsq": normsq}
    test_X = rng.uniform(low, high, (sizes.n_test, d))
    pairs = rng.uniform(low, high, (2, sizes.n_pairs, d))
    train_rng = np.random.default_rng(TRAINING_SEED)
    datasets = []
    for j in range(sizes.datasets):
        trains = {}
        for variant, target, rows in FITS[workload]:
            X = train_rng.uniform(low, high, (getattr(sizes, rows), d))
            y = targets[target](X) + SIGMA * train_rng.standard_normal(len(X))
            path = workdir / f"train{j}_{variant}.csv"
            write_rows(path, np.column_stack([X, y]))
            trains[variant] = dcreg.data.load_csv(path)
        datasets.append(trains)
    clean = {variant: targets[target](test_X) for variant, target, _ in FITS[workload]}
    return {"fits": FITS[workload], "datasets": datasets, "clean": clean,
            "test_X": test_X, "pairs": pairs, "workdir": workdir}


def fit_op(state, j, variant, sizes):
    """One fit on dataset j, timed, then its predictions measured and checked."""
    train, clean = state["datasets"][j][variant], state["clean"][variant]
    test_X, workdir = state["test_X"], state["workdir"]
    eval_model = dcreg.model.eval_model
    t0 = perf_counter()
    result = dcreg.fit.fit_dcf(train, dcreg.fit.FitConfig(variant=variant, kind="linf",
                                                          seed=TRAINING_SEED))
    fit_s = perf_counter() - t0
    model = result.final_model
    preds = eval_model(model, test_X)
    eval_s = timed_eval(model, test_X, sizes.min_eval_s)

    path = workdir / f"model{j}_{variant}.json"
    dcreg.serialize.save_model(model, path)
    loaded, _ = dcreg.serialize.load_bundle(path)
    dcreg.experiment.write_csv(workdir / f"pred{j}_{variant}.csv", ["prediction"],
                               [{"prediction": float(p)} for p in preds])

    errors = [
        checks.check_matches(checks.evaluate(checks.fields_from_model(model), test_X), preds),
        checks.check_identical(preds, eval_model(loaded, test_X), "save/load round trip"),
        checks.check_beats_affine(test_X, clean, preds),
        checks.check_centering(eval_model(model, train.X), train.y),
        checks.check_chains(result.risk_reg_chain, result.lip_chain, result.reg.theta3),
    ]
    if variant == dcreg.model.CONVEX_MAX_AFFINE:
        A, B = state["pairs"]
        errors.append(checks.check_midpoint_convex(
            eval_model(model, A), eval_model(model, B), eval_model(model, 0.5 * (A + B))))
    return {"variant": variant, "set": j, "time_s": fit_s, "eval_s": eval_s,
            "rows": len(test_X), "mse": float(np.mean((preds - clean) ** 2)),
            "pieces": sum(c.n_pieces for c in model.components()),
            "iters": [result.initial_report.iterations, result.refine_report.iterations],
            "errors": [e for e in errors if e]}


def fit_round(state, sizes):
    """The workload's fits on every training set, pooled over the sets."""
    ops = [fit_op(state, j, variant, sizes)
           for j in range(len(state["datasets"])) for variant, _, _ in state["fits"]]
    return {"ops": ops,
            "wall_s": sum(op["time_s"] for op in ops) / len(state["datasets"]),
            "predict_rows_per_s": sum(op["rows"] for op in ops) / sum(op["eval_s"] for op in ops),
            "test_mse": statistics.fmean(op["mse"] for op in ops)}


# ---------------------------------------------------------------------------
# predict_cli

def setup_predict(workload, seed, sizes, workdir):
    """Fit and save a d=8 model with `dcreg fit`; write the features CSV."""
    train_rng = np.random.default_rng(TRAINING_SEED)
    f = dma_target(8)
    X = train_rng.uniform(-1.0, 1.0, (sizes.n_cli_fit, 8))
    y = f(X) + SIGMA * train_rng.standard_normal(len(X))
    X_pred = np.random.default_rng(seed).uniform(-1.0, 1.0, (sizes.n_predict, 8))
    train_path, feats_path = workdir / "train.csv", workdir / "features.csv"
    model_path = workdir / "model.json"
    write_rows(train_path, np.column_stack([X, y]))
    write_rows(feats_path, X_pred)
    code = cli(["fit", "--data", str(train_path), "--variant", "single", "--kind", "linf",
                "--scaling", "std", "--seed", str(TRAINING_SEED), "--out", str(model_path)])
    if code != 0:
        raise RuntimeError(f"set-up `dcreg fit` exited {code}")
    return {"X": X, "y": y, "X_pred": X_pred, "clean": f(X_pred),
            "model": model_path, "features": feats_path, "out": workdir / "predictions.csv"}


def predict_references(state):
    """Own evaluation of the model file, parsed with json; not timed."""
    with open(state["model"]) as fh:
        fields = checks.fields_from_payload(json.load(fh))
    state["reference"] = checks.evaluate(fields, state["X_pred"])
    state["train_reference"] = checks.evaluate(fields, state["X"])


def predict_round(state, sizes):
    out = state["out"]
    t0 = perf_counter()
    code = cli(["predict", "--model", str(state["model"]), "--data", str(state["features"]),
                "--out", str(out)])
    wall_s = perf_counter() - t0
    preds = np.full(len(state["X_pred"]), np.nan)
    try:
        if code != 0:
            raise ValueError(f"`dcreg predict` exited {code}")
        preds = read_predictions(out)
    except (OSError, ValueError, IndexError) as exc:
        errors = [f"dcreg predict output: {exc}"]
    else:
        errors = [checks.check_matches(state["reference"], preds, "dcreg predict output"),
                  checks.check_beats_affine(state["X_pred"], state["clean"], preds),
                  checks.check_centering(state["train_reference"], state["y"])]
    op = {"errors": [e for e in errors if e]}
    return {"ops": [op], "wall_s": wall_s,
            "predict_rows_per_s": len(state["X_pred"]) / wall_s,
            "test_mse": float(np.mean((preds - state["clean"]) ** 2))}


# ---------------------------------------------------------------------------

SETUP = {"fit_1d": setup_fits, "fit_8d": setup_fits, "predict_cli": setup_predict}
ROUND = {"fit_1d": fit_round, "fit_8d": fit_round, "predict_cli": predict_round}

E2E_UNITS = {"wall_s": "s", "predict_rows_per_s": "rows/s", "test_mse": "y_sq",
             "peak_rss_mb": "MiB", "setup_s": "s"}


def run(workload, seed, seconds, workdir, trace=False, sizes=FULL, started=None,
        setup_only=False, spans_path=None):
    """Set up, run rounds for ``seconds``, check; returns the result dict."""
    started = perf_counter() if started is None else started
    workdir = Path(workdir)
    tracer = tracing.Tracer() if trace else None

    def phase(name):
        return tracer.span(name) if tracer else contextlib.nullcontext()

    with tracer.installed() if tracer else contextlib.nullcontext():
        with phase("setup"):
            state = SETUP[workload](workload, seed, sizes, workdir)
        setup_s = perf_counter() - started
        if setup_only:
            return {"setup_s": setup_s}
        if workload == "predict_cli":
            predict_references(state)
        rounds = []
        t_start = perf_counter()
        while True:
            with phase("round"):
                rounds.append(ROUND[workload](state, sizes))
            n = len(rounds)
            if (perf_counter() - t_start) * (n + 1) / n > seconds:
                break

    ops = [op for r in rounds for op in r["ops"]]
    failed = sum(1 for op in ops if op["errors"])
    e2e = {name: statistics.median(r[name] for r in rounds)
           for name in ("wall_s", "predict_rows_per_s", "test_mse")}
    e2e["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    e2e["setup_s"] = setup_s
    if tracer and spans_path:
        tracer.write(spans_path)
    return {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "rounds": len(rounds),
        "errors": [e for op in ops for e in op["errors"]],
        "ops": [{k: v for k, v in op.items() if k != "errors"} for op in ops],
        "end_to_end": {k: {"value": float(v), "unit": E2E_UNITS[k]} for k, v in e2e.items()},
        "per_layer": tracing.layer_metrics(tracer.spans) if tracer else None,
    }


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--workdir", required=True)
    p.add_argument("--spans")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)
    src = Path(__file__).resolve().parent.parent / "src"
    if Path(dcreg.__file__).resolve().parent.parent != src:
        sys.exit(f"dcreg was imported from {dcreg.__file__}, not from {src}")
    result = run(args.workload, args.seed, args.seconds, args.workdir, trace=bool(args.trace),
                 started=STARTED, setup_only=args.setup_only, spans_path=args.spans)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
