"""Correctness gate: each run is compared with the diagnostics recorded at the seed.

A run fails when it raised or exited nonzero, when a comparison run
(explicit-lumped or imex-consistent) no longer shows its bound violation
``min T < 0`` (the behaviour the paper contrasts with the bound-preserving
scheme), or when a recorded per-step diagnostic moved by more than:

* ``FIELD_ATOL * K`` for minT, maxT, minN, maxN, minPhi, maxPhi,
* ``ENERGY_RTOL`` relative for the accumulated energy,
* ``TIME_ATOL`` for the step time.

Why 1e-8: repeated runs of one config are bit-identical; the whole-cell
seed shifts of ``fine-imex`` move these values by at most 8e-16 (measured
at nx = 320); a change of summation order with CG stopped at 1e-12 moves
them by about 1e-12. The smallest violation the gate must keep seeing,
|min T| = 1.69e-5 in the explicit-lumped energy-sweep runs, is more than
three orders of magnitude above the tolerance, and any change to the
scheme itself moves the extrema by far more. CG iteration counts and
residuals are reported, not gated: a different summation order may
legitimately change them.
"""

from __future__ import annotations

import hashlib
import json
import math
import os

from tumorfem.scheme import SchemeVariant, StepDiagnostics

FIELD_ATOL = 1e-8
ENERGY_RTOL = 1e-8
TIME_ATOL = 1e-12
EXTREMA = range(2, 8)  # minT .. maxPhi in a diagnostics row
ENERGY = 10
REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")


def recorded_steps(n_steps: int) -> list[int]:
    """The steps whose diagnostics the reference keeps: about 20 per run."""
    stride = max(1, math.ceil(n_steps / 20))
    return sorted(set(range(0, n_steps + 1, stride)) | {n_steps})


def digest(rows) -> str:
    return hashlib.sha256(repr(rows).encode()).hexdigest()


def reference_entry(rows) -> dict:
    n_steps = len(rows) - 1
    return {
        "n_steps": n_steps,
        "digest": digest(rows),
        "rows": [[rows[s][0], rows[s][1], *rows[s][2:8], rows[s][ENERGY]]
                 for s in recorded_steps(n_steps)],
    }


def load_reference() -> dict:
    with open(REFERENCE, encoding="utf-8") as f:
        return json.load(f)["runs"]


def failure(outcome, reference: dict, require_reference: bool) -> str:
    """Why the run fails the gate, or "" when it passes."""
    if outcome.error:
        return outcome.error
    rows = outcome.rows
    if outcome.variant is not SchemeVariant.IMEX_LUMPED and min(r[2] for r in rows) >= 0.0:
        return f"{outcome.label}: comparison run no longer shows min T < 0"
    ref = reference.get(outcome.label)
    if ref is None:
        return f"{outcome.label}: no recorded reference" if require_reference else ""
    if len(rows) != ref["n_steps"] + 1:
        return f"{outcome.label}: {len(rows) - 1} steps, reference has {ref['n_steps']}"
    for step, time, *values in ref["rows"]:
        row = rows[step]
        if abs(row[1] - time) > TIME_ATOL:
            return f"{outcome.label}: step {step} time {row[1]!r} != {time!r}"
        for i, want in zip(EXTREMA, values[:-1]):
            if abs(row[i] - want) > FIELD_ATOL * outcome.K:
                return f"{outcome.label}: step {step} field {i} = {row[i]!r}, seed {want!r}"
        if abs(row[ENERGY] - values[-1]) > ENERGY_RTOL * abs(values[-1]):
            return f"{outcome.label}: step {step} energy {row[ENERGY]!r}, seed {values[-1]!r}"
    return ""


def bound_violation_steps(outcomes) -> int:
    """Steps of imex-lumped runs whose diagnostics break a bound."""
    return sum(
        not StepDiagnostics(*row).bounds_ok(o.K)
        for o in outcomes
        if o.rows is not None and o.variant is SchemeVariant.IMEX_LUMPED
        for row in o.rows[1:]
    )


def identical_to_reference(outcomes, reference: dict) -> int:
    """How many runs reproduce the seed's diagnostics bit for bit (reported only)."""
    return sum(
        o.rows is not None and o.label in reference
        and digest(o.rows) == reference[o.label]["digest"]
        for o in outcomes
    )
