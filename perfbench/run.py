"""tumorfem benchmark: end-to-end and per-layer metrics for three workloads.

Run from the repository root:

    python3 perfbench/run.py --workload fine-imex --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all          # every end-to-end metric
    python3 perfbench/run.py --workload all --smoke  # reduced sizes, a few seconds

``--trace 0`` reports the end-to-end metrics, from untraced passes taken
after one warm-up pass:

* ``wall_s``: median wall time of one pass of the workload.
* ``setup_s``: median over repeats of ``run()`` with tf = 0 on every config
  of the workload, summed over the configs.
* ``step_ms``: median over (set-up, pass) pairs of (pass - set-up) per
  time step of one pass.
* ``peak_mem_mb``: peak resident memory of a separate process that
  imports the package and runs one pass.

``--trace 1`` reports the per-layer metrics from traced passes alternated
with untraced ones (see tracing.py), and writes the spans to
``.perfbench_out/``. Every pass is checked by the gate in check.py; the
last stdout line is the JSON result. The package is imported from ``src/``
of the checkout this script sits in; without it the script exits with 2.
See README.md for the metrics, the gate and the limits.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
NAMES = ("fine-imex", "energy-sweep", "paper-figures")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="reduced sizes, one timed pass")
    ap.add_argument("--peak-pass", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "tumorfem")):
        print(f"error: no tumorfem package under {SRC}", file=sys.stderr)
        return 2
    # One BLAS thread: the benchmark measures one serial process, and on a
    # shared 2-vCPU machine a second BLAS thread mostly measures contention.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    sys.path.insert(0, SRC)
    import harness

    os.makedirs(harness.OUT, exist_ok=True)
    if args.peak_pass:
        harness.peak_pass(args.workload, args.seed, args.smoke)
        return 0

    names = NAMES if args.workload == "all" else (args.workload,)
    results = [harness.bench(n, args.seed, args.seconds, bool(args.trace), args.smoke)
               for n in names]
    for result in results:
        harness.print_result(result)
    prefix = len(results) > 1
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {
            (f"{r['workload']}.{k}" if prefix else k): {"value": v, "unit": r["units"][k]}
            for r in results for k, v in r["metrics"].items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
