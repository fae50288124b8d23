"""Benchmark of the dsta solver: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload tsp-2000 --seed 1 --seconds 30 --trace 0

Run from the repository root.  The package is imported from `src/` next to
this directory and from nowhere else.  BLAS is pinned to one thread, so the
run uses one process and one compute thread.

A run sets the workload up five times, then solves batches (one trial each,
through `dsta.bench`; on rosen-200-modes one sta/dsta pair) until `--seconds`
have passed and at least the workload's minimum batch count is done.  Every
trial's output is checked; a trial failing any check counts in `failed`.

`--trace 0` prints the end-to-end metrics:
  setup_s         median seconds to build the Problem from the inputs
  evals_per_s     evaluations (RunResult.evaluations) per second of solving
  trial_s_p50     median seconds per batch
  best_cost_mean  mean best cost over the minimum batches (maxcut: the
                  weight left uncut, which stays positive)
  peak_rss_mb     peak resident memory of the process
Times are in seconds at a fixed reference machine speed: see SpeedProbe in
harness.py.  `--trace 1` reruns each batch traced and prints the per-layer
metrics; its spans go to `.perfbench_out/`.  The line before the result holds
the environment, sample counts, unadjusted times, failed_frac and the first
failure messages.
"""

import os

BLAS_THREADS = "1"
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = BLAS_THREADS  # read once, when numpy loads BLAS

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.dont_write_bytecode = True
sys.path.insert(0, str(ROOT / "src"))


def main(argv=None) -> int:
    try:
        import dsta
    except ImportError as exc:
        print(f"perfbench: cannot import dsta from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if Path(dsta.__file__).resolve().parent != ROOT / "src" / "dsta":
        print(f"perfbench: dsta imported from {dsta.__file__}, not from src/", file=sys.stderr)
        return 2

    from harness import measure
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    result, details = measure(
        WORKLOADS[args.workload](), args.seed, args.seconds, bool(args.trace), ROOT / ".perfbench_out"
    )
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
