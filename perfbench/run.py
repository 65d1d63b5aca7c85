"""Benchmark of dcreg: fit time, predict throughput and test MSE.

Run one workload (from the root of a checkout):

    python3 perfbench/run.py --workload fit_1d --seed 0 --seconds 30 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  The same object,
with the end-to-end figures of a traced run too, is kept in
``perfbench/results/<workload>-seed<seed>-trace<t>.json``; a traced run also
writes its spans to ``perfbench/results/spans-<workload>-seed<seed>.json``.

Compare two result files, metric by metric:

    python3 perfbench/run.py --compare BEFORE.json AFTER.json

The workload runs in a child process (``worker.py``) with one BLAS thread and
``src/`` of this checkout on its path.  The set-up is timed in that child and
in two more children that only set up; ``setup_s`` is the median of the three.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
WORKLOADS = ("fit_1d", "fit_8d", "predict_cli")
SETUP_RUNS = 3
BLAS_THREADS = "1"
TIME_LIMIT_S = 170
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class RunError(RuntimeError):
    pass


def child_env():
    env = dict(os.environ)
    env.update({var: BLAS_THREADS for var in THREAD_VARS})
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"   # every run compiles dcreg afresh
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(args, deadline):
    """Run worker.py; returns the JSON object on its last line of output."""
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=child_env(),
                              cwd=ROOT, timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise RunError(f"worker did not finish within {TIME_LIMIT_S} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RunError(f"worker exited {proc.returncode}")
    return json.loads(lines[-1])


def run_benchmark(workload, seed, seconds, trace):
    """Returns (printed result, full record for the results file)."""
    deadline = time.monotonic() + TIME_LIMIT_S
    RESULTS.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"work-{workload}-", dir=RESULTS))
    common = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
              "--trace", str(trace)]
    try:
        setups = []
        if not trace:
            for i in range(SETUP_RUNS - 1):
                (workdir / f"setup{i}").mkdir()
                res = run_child([*common, "--workdir", str(workdir / f"setup{i}"),
                                 "--setup-only"], deadline)
                setups.append(res["setup_s"])
        (workdir / "main").mkdir()
        spans = ["--spans", str(RESULTS / f"spans-{workload}-seed{seed}.json")] if trace else []
        res = run_child([*common, "--workdir", str(workdir / "main"), *spans], deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    e2e = res["end_to_end"]
    setups.append(e2e["setup_s"]["value"])
    e2e["setup_s"]["value"] = statistics.median(setups)
    printed = {"correct": res["correct"], "attempted": res["attempted"],
               "failed": res["failed"], "metrics": res["per_layer"] if trace else e2e}
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "rounds": res["rounds"], "setup_runs_s": setups, "errors": res["errors"],
              "ops": res["ops"],
              "end_to_end": e2e, "per_layer": res["per_layer"], "result": printed}
    return printed, record


# ---------------------------------------------------------------------------
# compare mode

def directions():
    """metric name -> "lower" or "higher", from BENCHMARK.json when present."""
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        return {}
    spec = json.loads(path.read_text())
    return {m["name"]: m["better"] for m in spec.get("end_to_end", []) + spec.get("per_layer", [])}


def compare(path_a, path_b):
    a, b = (json.loads(Path(p).read_text()) for p in (path_a, path_b))
    better = directions()
    print(f"A: {path_a} ({a['workload']}, seed {a['seed']}, trace {a['trace']})")
    print(f"B: {path_b} ({b['workload']}, seed {b['seed']}, trace {b['trace']})")
    print(f"{'metric':24} {'unit':9} {'A':>14} {'B':>14} {'B-A':>9}")
    ma = {**a["end_to_end"], **(a["per_layer"] or {})}
    mb = {**b["end_to_end"], **(b["per_layer"] or {})}
    for name in [*ma, *(n for n in mb if n not in ma)]:
        if name not in ma or name not in mb:
            side = "A" if name in ma else "B"
            print(f"{name:24} only in {side}")
            continue
        va, vb = ma[name]["value"], mb[name]["value"]
        delta = f"{(vb - va) / abs(va):+.2%}" if va else "n/a"
        verdict = ""
        if name in better and vb != va:
            verdict = "better" if (vb < va) == (better[name] == "lower") else "worse"
        print(f"{name:24} {ma[name]['unit']:9} {va:14.6g} {vb:14.6g} {delta:>9} {verdict}")


def main(argv=None):
    p = argparse.ArgumentParser(description="dcreg benchmark")
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--compare", nargs=2, metavar=("A", "B"),
                   help="print per-metric deltas between two result files")
    args = p.parse_args(argv)
    if args.compare:
        compare(*args.compare)
        return 0
    if args.workload is None:
        p.error("--workload is required")
    if not (ROOT / "src" / "dcreg" / "__init__.py").is_file():
        print(f"no dcreg package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        printed, record = run_benchmark(args.workload, args.seed, args.seconds, args.trace)
    except RunError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    (RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    for err in record["errors"]:
        print(f"check failed: {err}", file=sys.stderr)
    print(json.dumps(printed))
    return 0 if printed["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
