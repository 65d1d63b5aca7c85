"""Fit time at larger K: `single`/linf fits of the benchmark's d = 8 target at n = 512, 1024, 2048.

Run from the root of a checkout (one BLAS thread, as the benchmark runs):

    OPENBLAS_NUM_THREADS=1 python3 tools/at_scale.py [--sizes 512 1024 2048]

Each set draws X uniform on [-1, 1]^8 and y = dma_target(8)(X) + N(0, 0.1^2)
(``perfbench/worker.py``) from seed 7, and fits it with seed 7.  One line per
size gives K, the fit's wall time, stage 1's time and Newton steps (summed
over its penalty ladder), stage 2's time and its first smoothing width's
solve, read from ``FitResult.timings`` and the ``stage1``/``stage2`` log lines.
"""

import argparse
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]

import worker  # noqa: E402
from quality import solve_lines  # noqa: E402

import dcreg.fit  # noqa: E402
from dcreg.data import Dataset  # noqa: E402

SEED = 7
SIZES = (512, 1024, 2048)


def measure(n):
    rng = np.random.default_rng(SEED)
    X = rng.uniform(-1.0, 1.0, (n, 8))
    y = worker.dma_target(8)(X) + worker.SIGMA * rng.standard_normal(n)
    with solve_lines() as lines:
        start = perf_counter()
        result = dcreg.fit.fit_dcf(Dataset(X, y), dcreg.fit.FitConfig(seed=SEED))
        fit_s = perf_counter() - start
    stage1 = [fields for stage, fields in lines if stage == "stage1"]
    stage2 = [fields for stage, fields in lines if stage == "stage2"]
    return {"n": n, "K": result.partition.n_centers, "fit_s": fit_s,
            "stage1_s": result.timings["stage1"],
            "stage1_steps": sum(int(f["iters"]) for f in stage1),
            "stage2_s": result.timings["stage2"],
            "first_mu_s": float(stage2[0]["wall"].rstrip("s"))}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--sizes", type=int, nargs="+", default=list(SIZES))
    args = p.parse_args(argv)
    print("| n | K | fit | stage 1 | stage 2 | first mu solve |")
    print("|---|---|---|---|---|---|")
    for n in args.sizes:
        r = measure(n)
        print(f"| {r['n']:,} | {r['K']} | {r['fit_s']:.3g} s | {r['stage1_s']:.3g} s, "
              f"{r['stage1_steps']} steps | {r['stage2_s']:.3g} s | {r['first_mu_s']:.3g} s |",
              flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
