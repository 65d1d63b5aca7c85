"""In-memory spans around the dcreg functions that ``fit_dcf`` and the CLI call.

``Tracer.installed()`` swaps each traced function for a wrapper in every
module that looks it up by name, and puts the originals back on exit.  A span
is a dict with ``id``, ``name``, ``parent`` (the id of the enclosing span),
``start`` and ``end`` (``time.perf_counter`` seconds) and the counts taken at
that boundary.  ``layer_metrics`` turns the spans of one run into the
per-layer metrics of the benchmark.
"""

import contextlib
import json
import os
import statistics
from time import perf_counter

import numpy as np

import dcreg.cli
import dcreg.data
import dcreg.experiment
import dcreg.features
import dcreg.fit
import dcreg.model
import dcreg.serialize
from dcreg.solver import ObjectiveHandle

MIB = 1024.0 * 1024.0


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []

    @contextlib.contextmanager
    def span(self, name, **counts):
        rec = {"id": len(self.spans), "name": name,
               "parent": self._stack[-1] if self._stack else None,
               "start": perf_counter(), "end": None, **counts}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = perf_counter()
            self._stack.pop()

    def write(self, path):
        with open(path, "w") as fh:
            json.dump(self.spans, fh)
            fh.write("\n")

    # -- wrappers; each returns exactly what the wrapped function returns

    def _afpc(self, fn):
        def afpc(X, seed, y=None):
            with self.span("afpc") as rec:
                part = fn(X, seed, y)
                rec["centers"] = int(part.n_centers)
            return part
        return afpc

    def _fit_initial(self, fn):
        def fit_initial(*args, **kwargs):
            with self.span("stage1") as rec:
                model, info = fn(*args, **kwargs)
                rec["violation"] = float(info["violation"])
            return model, info
        return fit_initial

    def _refine(self, fn):
        def refine(initial_model, dataset, reg, cfg=None):
            with self.span("stage2", phi_mb=_stage2_tensor_mib(initial_model, dataset)) as rec:
                out = fn(initial_model, dataset, reg, cfg)
                rec["accepted"] = float(out[2])
            return out
        return refine

    def _finalize(self, fn):
        def finalize(refined, dataset):
            with self.span("finalize") as rec:
                model = fn(refined, dataset)
                rec["pieces"] = sum(int(c.n_pieces) for c in model.components())
            return model
        return finalize

    def _lbfgs(self, fn):
        def lbfgs_minimize(obj, x0, cfg, callback=None):
            counts = {"evals": 0, "eval_s": 0.0}

            def evaluate(x):
                t0 = perf_counter()
                try:
                    return obj.evaluate(x)
                finally:
                    counts["evals"] += 1
                    counts["eval_s"] += perf_counter() - t0

            with self.span("lbfgs") as rec:
                x_star, report = fn(ObjectiveHandle(obj.dim, evaluate), x0, cfg, callback)
                rec.update(counts, iters=int(report.iterations),
                           grad_norm=float(report.final_grad_norm))
            return x_star, report
        return lbfgs_minimize

    def _eval_model(self, fn):
        def eval_model(model, x):
            with self.span("eval_model", rows=int(np.shape(x)[0]) if np.ndim(x) > 1 else 1):
                return fn(model, x)
        return eval_model

    def _save_model(self, fn):
        def save_model(model, path, scaling_spec=None):
            with self.span("save") as rec:
                fn(model, path, scaling_spec)
            rec["bytes"] = os.path.getsize(path)
        return save_model

    def _load_bundle(self, fn):
        def load_bundle(path):
            with self.span("load"):
                return fn(path)
        return load_bundle

    def _load_csv(self, fn):
        def load_csv(path, response_col=None):
            with self.span("load_csv") as rec:
                ds = fn(path, response_col)
                rec["rows"] = int(ds.n)
            return ds
        return load_csv

    def _write_csv(self, fn):
        def write_csv(path, columns, rows):
            with self.span("write_csv", rows=len(rows)):
                fn(path, columns, rows)
        return write_csv

    @contextlib.contextmanager
    def installed(self):
        """Trace every call made while the block runs."""
        targets = [
            (dcreg.fit, "afpc", self._afpc),
            (dcreg.fit, "fit_initial", self._fit_initial),
            (dcreg.fit, "refine", self._refine),
            (dcreg.fit, "finalize", self._finalize),
            (dcreg.fit, "lbfgs_minimize", self._lbfgs),
            (dcreg.model, "eval_model", self._eval_model),
            (dcreg.serialize, "save_model", self._save_model),
            (dcreg.cli, "save_model", self._save_model),
            (dcreg.serialize, "load_bundle", self._load_bundle),
            (dcreg.cli, "load_bundle", self._load_bundle),
            (dcreg.data, "load_csv", self._load_csv),
            (dcreg.cli, "load_csv", self._load_csv),
            (dcreg.experiment, "write_csv", self._write_csv),
            (dcreg.cli, "write_csv", self._write_csv),
        ]
        originals = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in targets]
        try:
            for (mod, attr, wrap), (_, _, fn) in zip(targets, originals):
                setattr(mod, attr, wrap(fn))
            yield self
        finally:
            for mod, attr, fn in originals:
                setattr(mod, attr, fn)


def _stage2_tensor_mib(initial_model, dataset):
    """Computed size of the per-evaluation tensor stage 2 builds.

    (n, K, slope_dim) features for the max forms, (n, K, 2d) inner values
    for max-min-affine; from the shapes, not measured.
    """
    n, d = dataset.X.shape
    if initial_model.variant == dcreg.model.MAX_MIN_AFFINE:
        per_row = initial_model.mma.biases.size
    else:
        slope_dim = (d if initial_model.variant == dcreg.model.CONVEX_MAX_AFFINE
                     else dcreg.features.feature_dim(initial_model.component.kind, d))
        per_row = initial_model.component.n_pieces * slope_dim
    return n * per_row * 8 / MIB


# ---------------------------------------------------------------------------
# per-layer metrics

PER_LAYER_UNITS = {
    "afpc_s": "s", "afpc_centers": "count",
    "stage1_s": "s", "stage1_iters": "count", "stage1_evals": "count",
    "stage1_eval_ms": "ms", "stage1_grad_norm": "max_abs", "stage1_violation": "max_resid",
    "stage2_s": "s", "stage2_iters": "count", "stage2_evals": "count",
    "stage2_eval_ms": "ms", "stage2_phi_mb": "MiB", "stage2_grad_norm": "max_abs",
    "refine_accepted": "share",
    "lbfgs_overhead_s": "s",
    "finalize_s": "s", "pieces_kept": "count",
    "eval_us_per_row": "us/row",
    "save_s": "s", "load_s": "s", "model_bytes": "bytes",
    "load_csv_s": "s", "load_csv_rows_per_s": "rows/s",
    "write_csv_s": "s",
}


def layer_metrics(spans):
    """Per-layer metrics of one run, from its spans.

    The top-level spans are ``setup`` and one ``round`` per round.  A layer
    is measured over the rounds when it runs there, else over the set-up.
    Times (``*_s``) are per round (or for the set-up); counts are means per
    call; rates and per-evaluation costs are totals over totals.
    """
    by_id = {s["id"]: s for s in spans}

    def root(s):
        while s["parent"] is not None:
            s = by_id[s["parent"]]
        return s["name"]

    roots = [s["name"] for s in spans if s["parent"] is None]

    def chosen(name):
        calls = [s for s in spans if s["name"] == name]
        in_rounds = [s for s in calls if root(s) == "round"]
        if in_rounds:
            return in_rounds, roots.count("round")
        return calls, max(1, roots.count("setup"))

    def per_round(name):
        calls, n_roots = chosen(name)
        return sum(s["end"] - s["start"] for s in calls) / n_roots

    def mean(name, key):
        calls, _ = chosen(name)
        return statistics.fmean(s[key] for s in calls) if calls else 0.0

    def solves(stage):
        stage_ids = {s["id"] for s in chosen(stage)[0]}
        return [s for s in spans if s["name"] == "lbfgs" and s["parent"] in stage_ids]

    out = {
        "afpc_s": per_round("afpc"), "afpc_centers": mean("afpc", "centers"),
        "finalize_s": per_round("finalize"), "pieces_kept": mean("finalize", "pieces"),
        "stage1_violation": mean("stage1", "violation"),
        "stage2_phi_mb": mean("stage2", "phi_mb"),
        "refine_accepted": mean("stage2", "accepted"),
        "save_s": per_round("save"), "load_s": per_round("load"),
        "model_bytes": mean("save", "bytes"),
        "load_csv_s": per_round("load_csv"), "write_csv_s": per_round("write_csv"),
    }
    for prefix in ("stage1", "stage2"):
        runs = solves(prefix)
        evals = sum(s["evals"] for s in runs)
        out[f"{prefix}_s"] = per_round(prefix)
        out[f"{prefix}_iters"] = statistics.fmean(s["iters"] for s in runs) if runs else 0.0
        out[f"{prefix}_evals"] = evals / len(runs) if runs else 0.0
        out[f"{prefix}_eval_ms"] = 1e3 * sum(s["eval_s"] for s in runs) / max(1, evals)
        out[f"{prefix}_grad_norm"] = (statistics.fmean(s["grad_norm"] for s in runs)
                                      if runs else 0.0)
    solver_runs = solves("stage1") + solves("stage2")
    n_rounds = chosen("stage1")[1]
    out["lbfgs_overhead_s"] = sum(s["end"] - s["start"] - s["eval_s"]
                                  for s in solver_runs) / n_rounds
    evals, _ = chosen("eval_model")
    out["eval_us_per_row"] = 1e6 * (sum(s["end"] - s["start"] for s in evals)
                                    / max(1, sum(s["rows"] for s in evals)))
    loads, _ = chosen("load_csv")
    load_time = sum(s["end"] - s["start"] for s in loads)
    out["load_csv_rows_per_s"] = sum(s["rows"] for s in loads) / load_time if load_time else 0.0
    return {name: {"value": float(out[name]), "unit": unit}
            for name, unit in PER_LAYER_UNITS.items()}
