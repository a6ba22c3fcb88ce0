"""Record the per-step diagnostics the correctness gate compares against.

    python3 perfbench/record_reference.py

Runs one untraced pass of every workload at seed 0 and rewrites
``perfbench/reference.json``. Re-record only for a change that is meant to
move the numbers, and say so where the change is described.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
os.environ["OPENBLAS_NUM_THREADS"] = "1"  # as in run.py
sys.path.insert(0, os.path.join(ROOT, "src"))

import check  # noqa: E402
from workloads import NAMES, Workload  # noqa: E402


def main() -> int:
    runs = {}
    out = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out) as workdir:
        for name in NAMES:
            for outcome in Workload(name, seed=0, smoke=False).run_pass(workdir):
                if outcome.error:
                    print(outcome.error, file=sys.stderr)
                    return 1
                runs[outcome.label] = check.reference_entry(outcome.rows)
    head = {
        "tolerance": {"field_atol_times_K": check.FIELD_ATOL, "energy_rtol": check.ENERGY_RTOL,
                      "time_atol": check.TIME_ATOL},
        "row_fields": ["step", "time", "min_t", "max_t", "min_n", "max_n", "min_phi",
                       "max_phi", "energy_acc"],
    }
    lines = [f"{json.dumps(k)}: {json.dumps(v)}" for k, v in head.items()]
    lines.append('"runs": {\n' + ",\n".join(
        f"{json.dumps(label)}: {json.dumps(entry)}" for label, entry in runs.items()) + "\n}")
    with open(check.REFERENCE, "w", encoding="utf-8") as f:
        f.write("{\n" + ",\n".join(lines) + "\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
