"""Self-check of the benchmark: every workload once at reduced size, and the gate.

    python3 -m pytest perfbench -q

These tests sit outside the package's tier-1 suite (``testpaths`` names
only ``tests/``); a full benchmark run takes minutes, this takes seconds.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import check  # noqa: E402
from workloads import RunOutcome  # noqa: E402

from tumorfem.scheme import SchemeVariant  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
    SPEC = json.load(f)


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        capture_output=True, text=True, cwd=cwd, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_reports_every_metric(workload, trace):
    proc = _bench("--workload", workload, "--seed", "7", "--seconds", "0",
                  "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec
    }


def test_refuses_to_run_without_the_package_sources():
    out = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out, exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=out)
    try:
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        proc = _bench("--workload", "fine-imex", "--seed", "0", "--seconds", "1",
                      "--trace", "0", cwd=bare)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert proc.stdout == ""


def _outcome_from_reference(label, variant):
    """A full-length outcome that repeats each recorded row until the next one."""
    ref = check.load_reference()[label]
    recorded = {r[0]: r for r in ref["rows"]}
    rows, last = [], None
    for step in range(ref["n_steps"] + 1):
        last = recorded.get(step, last)
        s, time, *extrema, energy = last
        rows.append((step, time, *extrema, 0, 0.0, energy))
    return RunOutcome(label, variant, 1.0, tuple(rows))


def test_gate_accepts_the_recorded_diagnostics():
    outcome = _outcome_from_reference("bounds-explicit-lumped", SchemeVariant.EXPLICIT_LUMPED)
    assert check.failure(outcome, check.load_reference(), True) == ""


def test_gate_rejects_a_moved_extremum_and_a_lost_violation():
    reference = check.load_reference()
    outcome = _outcome_from_reference("bounds-explicit-lumped", SchemeVariant.EXPLICIT_LUMPED)
    rows = list(outcome.rows)
    rows[-1] = rows[-1][:3] + (rows[-1][3] + 1e-6,) + rows[-1][4:]
    moved = RunOutcome(outcome.label, outcome.variant, 1.0, tuple(rows))
    assert "field 3" in check.failure(moved, reference, True)

    clipped = tuple(r[:2] + (max(r[2], 0.0),) + r[3:] for r in outcome.rows)
    lost = RunOutcome(outcome.label, outcome.variant, 1.0, clipped)
    assert "no longer shows min T < 0" in check.failure(lost, reference, True)


def test_gate_counts_errors_and_unreferenced_runs():
    reference = check.load_reference()
    raised = RunOutcome("fine-imex", SchemeVariant.IMEX_LUMPED, 1.0, None, "boom")
    assert check.failure(raised, reference, True) == "boom"
    stray = _outcome_from_reference("fine-imex", SchemeVariant.IMEX_LUMPED)
    stray = RunOutcome("not-recorded", stray.variant, 1.0, stray.rows)
    assert check.failure(stray, reference, True)
    assert check.failure(stray, reference, False) == ""
