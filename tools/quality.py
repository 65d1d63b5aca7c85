"""Quality yardstick of dcreg: held-out excess MSE of the benchmark fits, with its ulp spread.

Measure one workload, or compare two measurements (from the root of a checkout):

    python3 tools/quality.py --workload fit_1d --out fit_1d.json
    python3 tools/quality.py --compare BEFORE.json AFTER.json

Each training set of the benchmark workload (``perfbench/worker.py``:
``setup_fits``, or the rows of the fit that ``setup_predict`` makes for
``predict_cli``) is fitted as the benchmark fits it, once as drawn and once
with X scaled by 1 + k 2^-52 for k = -2..3 (k = 0 is the benchmark's own
fit).  The scaled rows go through the same CSV write and ``load_csv`` read.
The excess MSE is mean((prediction - clean target)^2) on the held-out rows
that seed 0 draws.  The predictions are perfbench's own numpy evaluation of
the model's raw fields (``checks.evaluate``), and the error is numpy's, so
nothing of dcreg grades itself.  Everything is deterministic.

The printed table gives, per fitted set and pooled per variant and over the
workload, the median, quartiles and range of excess MSE, the stop reasons
and iteration counts of both stages, and the range of the stage-2 working
set (the ``pieces=`` of each logged solve) per smoothing width.
``--compare`` pairs the fits by (variant, set, k) and applies the rule
``RULE`` below.
"""

import argparse
import contextlib
import json
import logging
import sys
import tempfile
from collections import Counter
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]

import checks  # noqa: E402
import worker  # noqa: E402

import dcreg.data  # noqa: E402
import dcreg.fit  # noqa: E402
import dcreg.serialize  # noqa: E402

KS = tuple(range(-2, 4))
TEST_SEED = 0
WORKLOADS = worker.WORKLOADS
RULE = ("a workload passes when no pooled median (per variant, and over the workload) "
        "is higher than the parent's by more than a quarter of the parent's pooled "
        "interquartile range, and no set's median is above the parent's largest value "
        "of that set (its ulp range)")


def ulp_scale(k):
    """1 + k 2^-52, exact in float64 for every k in KS."""
    return 1.0 + k * 2.0 ** -52


def _fit(path, variant, cli_path, model_path):
    """The fit of one training CSV as the benchmark makes it; returns (FitResult, fields).

    ``cli_path`` repeats what `dcreg fit` does, as the predict_cli set-up runs
    it, and reads the model file back with json.
    """
    ds = dcreg.data.load_csv(path)
    cfg = dcreg.fit.FitConfig(variant=variant, kind="linf", seed=worker.TRAINING_SEED)
    result = dcreg.fit.fit_dcf(ds, cfg)
    if not cli_path:
        return result, checks.fields_from_model(result.final_model)
    dcreg.serialize.save_model(result.final_model, model_path)
    with open(model_path) as fh:
        return result, checks.fields_from_payload(json.load(fh))


class _SolveLines(logging.Handler):
    def __init__(self):
        super().__init__()
        self.lines = []

    def emit(self, record):
        stage, *fields = record.getMessage().split()
        if stage in ("stage1", "stage2"):
            self.lines.append((stage, dict(f.split("=", 1) for f in fields)))


@contextlib.contextmanager
def solve_lines():
    """(stage, fields) of each ``stage1`` and ``stage2`` solve logged in the block, in order."""
    logger = logging.getLogger("dcreg.fit")
    handler, level = _SolveLines(), logger.level
    logger.addHandler(handler)
    logger.setLevel(logging.INFO)
    try:
        yield handler.lines
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)


def _training_sets(workload, sizes, workdir):
    """[(variant, set, X, y)], the held-out rows and their clean targets per variant."""
    if workload == "predict_cli":
        state = worker.setup_predict(workload, TEST_SEED, sizes, workdir)
        return [("single", 0, state["X"], state["y"])], state["X_pred"], \
            {"single": state["clean"]}
    state = worker.setup_fits(workload, TEST_SEED, sizes, workdir)
    sets = [(variant, j, ds.X, ds.y) for j, trains in enumerate(state["datasets"])
            for variant, ds in trains.items()]
    return sets, state["test_X"], state["clean"]


def measure(workload, sizes=worker.FULL, ks=KS):
    """One record per (variant, set, k) fit of the workload."""
    records = []
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        sets, test_X, clean = _training_sets(workload, sizes, workdir)
        for variant, j, X, y in sets:
            for k in ks:
                path = workdir / f"quality{j}_{variant}_{k}.csv"
                worker.write_rows(path, np.column_stack([X * ulp_scale(k), y]))
                with solve_lines() as lines:
                    result, fields = _fit(path, variant, workload == "predict_cli",
                                          workdir / "quality_model.json")
                preds = checks.evaluate(fields, test_X)
                records.append({
                    "variant": variant, "set": j, "k": k,
                    "excess_mse": float(np.mean((preds - clean[variant]) ** 2)),
                    "stage1": [result.initial_report.iterations,
                               result.initial_report.stop_reason],
                    "stage2": [result.refine_report.iterations,
                               result.refine_report.stop_reason],
                    "stage2_pieces": [int(f["pieces"]) for stage, f in lines
                                      if stage == "stage2"],
                    "pieces": sum(c.n_pieces for c in result.final_model.components()),
                })
    return {"workload": workload, "ks": list(ks), "records": records}


def summary(values):
    """(median, first quartile, third quartile, min, max) of a list of numbers."""
    q1, med, q3 = np.percentile(values, [25, 50, 75])
    return float(med), float(q1), float(q3), float(min(values)), float(max(values))


def groups(records):
    """{label: records}: each (variant, set), each variant pooled, and all pooled."""
    out = {}
    for r in records:
        out.setdefault(f"{r['variant']} set {r['set']}", []).append(r)
    for r in records:
        out.setdefault(f"{r['variant']} pooled", []).append(r)
    out["pooled"] = list(records)
    return out


def _stops(recs, stage):
    counts = Counter(r[stage][1] for r in recs)
    iters = [r[stage][0] for r in recs]
    reasons = " ".join(f"{reason}:{n}" for reason, n in sorted(counts.items()))
    return f"{reasons} iters {min(iters)}-{max(iters)}"


def _pieces(recs):
    """Range of the stage-2 working set per solve, '/' between the smoothing widths."""
    solves = [r.get("stage2_pieces", []) for r in recs]
    return "/".join(f"{min(p)}-{max(p)}" for p in zip(*solves)) or "-"


def report(measurement):
    lines = [f"{measurement['workload']}: excess MSE over k = {measurement['ks']}",
             f"{'group':28} {'median':>8} {'q1':>8} {'q3':>8} {'min':>8} {'max':>8}"
             f"  stage-1 stops; stage-2 stops; stage-2 pieces per mu"]
    for label, recs in groups(measurement["records"]).items():
        med, q1, q3, lo, hi = summary([r["excess_mse"] for r in recs])
        lines.append(f"{label:28} {med:8.4f} {q1:8.4f} {q3:8.4f} {lo:8.4f} {hi:8.4f}"
                     f"  {_stops(recs, 'stage1')}; {_stops(recs, 'stage2')}; {_pieces(recs)}")
    return "\n".join(lines)


def compare(before, after):
    """(printed lines, passed) of two measurements of one workload under ``RULE``."""
    if before["workload"] != after["workload"]:
        raise ValueError("the two measurements are of different workloads")
    key = ("variant", "set", "k")
    paired = {tuple(r[f] for f in key) for r in before["records"]} \
        == {tuple(r[f] for f in key) for r in after["records"]}
    if not paired:
        raise ValueError("the two measurements hold different fits")
    ga, gb = groups(before["records"]), groups(after["records"])
    lines = [f"{before['workload']}: {RULE}",
             f"{'group':28} {'before':>8} {'after':>8} {'bound':>8}  verdict"]
    passed = True
    for label, recs in ga.items():
        med_a, q1, q3, _, hi = summary([r["excess_mse"] for r in recs])
        med_b = summary([r["excess_mse"] for r in gb[label]])[0]
        bound = med_a + 0.25 * (q3 - q1) if label.endswith("pooled") else hi
        ok = med_b <= bound
        passed &= ok
        lines.append(f"{label:28} {med_a:8.4f} {med_b:8.4f} {bound:8.4f}  "
                     f"{'pass' if ok else 'FAIL'}")
    lines.append(f"{before['workload']}: {'PASS' if passed else 'FAIL'}")
    return "\n".join(lines), passed


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--out", help="write the measurement here as JSON")
    p.add_argument("--compare", nargs=2, metavar=("BEFORE", "AFTER"))
    args = p.parse_args(argv)
    if args.compare:
        before, after = (json.loads(Path(path).read_text()) for path in args.compare)
        text, passed = compare(before, after)
        print(text)
        return 0 if passed else 1
    if args.workload is None:
        p.error("--workload or --compare is required")
    measurement = measure(args.workload)
    if args.out:
        Path(args.out).write_text(json.dumps(measurement, indent=1) + "\n")
    print(report(measurement))
    return 0


if __name__ == "__main__":
    sys.exit(main())
