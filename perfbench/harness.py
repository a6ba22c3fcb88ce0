"""Measurement passes, the peak-memory child, the environment record and the result.

``bench`` runs one workload: a warm-up pass, then timed passes (set-up and
untraced pass alternating, or untraced and traced pass alternating) until
the time given has passed, then, untraced, a peak-memory pass in a child
process. Every pass goes through the gate of check.py.
"""

from __future__ import annotations

import contextlib
import ctypes
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import numpy
import scipy

import check
from tracing import Tracer
from workloads import Workload

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench_out")

END_TO_END = {"wall_s": "s", "setup_s": "s", "step_ms": "ms", "peak_mem_mb": "MiB"}
PER_LAYER = {
    "mesh.build_s": "s",
    "mesh.audit_s": "s",
    "fem.context_s": "s",
    "fem.assemble_ms": "ms",
    "fem.norms_ms": "ms",
    "fem.nnz": "count",
    "fem.assemble_bytes": "bytes",
    "scheme.diffusivity_ms": "ms",
    "scheme.stepper_ms": "ms",
    "scheme.stepper_self_ms": "ms",
    "model.coefficients_ms": "ms",
    "model.nodal_ms": "ms",
    "linalg.cg_ms": "ms",
    "linalg.cg_iters": "count",
    "linalg.cg_iters_per_solve": "count",
    "linalg.cg_residual_max": "ratio",
    "linalg.cg_failures": "count",
    "linalg.cg_bytes_per_iter": "bytes",
    "output.bytes_written": "bytes",
    "diagnostics.bound_violation_steps": "count",
    "trace.overhead_s": "s",
}
# Layers that some workload never calls, so their time reads 0 on every run
# of it (fine-imex calls no CLI, output or explicit reactions; energy-sweep
# writes no VTK). They are reported with the others, outside the metrics
# of the JSON result, which hold only figures that are measured each run.
LAYER_TIMES_NOT_ON_EVERY_WORKLOAD = {
    "model.reactions_ms": "ms",
    "output.vtk_ms": "ms",
    "output.run_outputs_ms": "ms",
    "diagnostics.summary_ms": "ms",
    "cli.self_s": "s",
}
LIMITS = (
    "shared 2-vCPU VM; no CPU pinning, no cache control, no frequency control; "
    "single passes spread about +-15%, up to +-25% while the host is busy, "
    "so every time is a median of repeated passes"
)


def _openblas() -> tuple[str, int | None]:
    """OpenBLAS version and thread count, read from the library numpy loaded."""
    try:
        with open("/proc/self/maps", encoding="ascii", errors="replace") as f:
            libs = sorted({ln.split()[-1] for ln in f if "openblas" in ln.lower() and ".so" in ln})
    except OSError:
        libs = []
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                get_config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if get_threads is not None and get_config is not None:
                    get_threads.restype = ctypes.c_int
                    get_config.restype = ctypes.c_char_p
                    return get_config().decode(), get_threads()
    return "unknown", None


def _git_revision() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="ascii") as f:
            ref = f.read().strip()
        if not ref.startswith("ref: "):
            return ref
        ref = ref[5:]
        loose = os.path.join(ROOT, ".git", ref)
        if os.path.exists(loose):
            with open(loose, encoding="ascii") as f:
                return f.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"), encoding="ascii") as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unavailable (not a git checkout)"


def environment(seed: int, seed_used: bool) -> dict:
    blas, threads = _openblas()
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": blas,
        "blas_threads": threads,
        "nproc": os.cpu_count(),
        "git_revision": _git_revision(),
        "seed": seed,
        "seed_used": seed_used,
        "limits": LIMITS,
    }


def _dir_bytes(path: str) -> int:
    return sum(
        os.path.getsize(os.path.join(d, f)) for d, _, files in os.walk(path) for f in files
    )


def timed_pass(workload, tracer=None):
    """One pass in a fresh output directory: (wall seconds, outcomes, bytes written)."""
    workdir = tempfile.mkdtemp(prefix="pass-", dir=OUT)
    try:
        with tracer.installed() if tracer else contextlib.nullcontext():
            start = time.perf_counter()
            outcomes = workload.run_pass(workdir)
            wall = time.perf_counter() - start
        return wall, outcomes, _dir_bytes(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def time_setup(workload) -> float:
    start = time.perf_counter()
    workload.setup()
    return time.perf_counter() - start


class Gate:
    """Counts runs and gate failures, and checks that passes repeat bit for bit."""

    def __init__(self, reference: dict, require_reference: bool):
        self.reference = reference
        self.require_reference = require_reference
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []
        self.first = None
        self.repeatable = True

    def add(self, outcomes) -> None:
        for o in outcomes:
            self.attempted += 1
            why = check.failure(o, self.reference, self.require_reference)
            if why:
                self.failed += 1
                self.reasons.append(why)
        rows = [o.rows for o in outcomes]
        if self.first is None:
            self.first = rows
        elif rows != self.first:
            self.repeatable = False

    def add_counts(self, attempted: int, failed: int, reasons) -> None:
        self.attempted += attempted
        self.failed += failed
        self.reasons.extend(reasons)


@contextlib.contextmanager
def peak_memory(name: str, seed: int, smoke: bool):
    """Peak resident memory of a fresh process that imports the package and runs one pass.

    The child starts on entry and runs beside the parent's warm-up pass,
    which is not timed; the peak does not depend on timing. Inside the
    block, ``result()`` waits for the child and returns its JSON. The whole
    process is counted, interpreter and libraries included: the peak above
    the imports moves in steps of whole allocator arenas (1 MiB), a fifth
    of it on the small workloads.
    """
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--peak-pass", "--workload", name,
           "--seed", str(seed)] + (["--smoke"] if smoke else [])
    # A fixed hash seed keeps dict and set layouts, and so the peak, the same
    # from run to run.
    env = {**os.environ, "PYTHONHASHSEED": "0"}
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            cwd=ROOT, env=env)

    def result() -> dict:
        out, err = proc.communicate(timeout=170)
        if proc.returncode != 0:
            raise RuntimeError(f"peak-memory pass failed:\n{err}")
        return json.loads(out.strip().splitlines()[-1])

    try:
        yield result
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.communicate()


def _peak_rss_kib() -> int:
    # VmHWM is this process's own high-water mark; ru_maxrss would also carry
    # the parent's resident size from before the exec.
    with open("/proc/self/status", encoding="ascii") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def peak_pass(name: str, seed: int, smoke: bool) -> None:
    """The child's side of ``peak_memory``: one pass, then print the peak as JSON."""
    workload = Workload(name, seed, smoke)
    gate = Gate(check.load_reference(), require_reference=not smoke)
    _, outcomes, _ = timed_pass(workload)
    gate.add(outcomes)
    print(json.dumps({
        "peak_mem_mb": _peak_rss_kib() / 1024.0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "reasons": gate.reasons,
    }))


def measure(workload, seconds: float, trace: bool, gate: Gate, label: str) -> dict:
    """Warm-up pass, then timed passes for at least ``seconds``; returns metrics."""
    with contextlib.ExitStack() as stack:
        child = None if trace else stack.enter_context(
            peak_memory(workload.name, workload.seed, workload.smoke))
        _, warm, _ = timed_pass(workload)
        peak = child() if child else None
    gate.add(warm)
    if peak:
        gate.add_counts(peak["attempted"], peak["failed"], peak["reasons"])
    info = {
        "bound_violation_steps": check.bound_violation_steps(warm),
        "runs_bit_identical_to_seed": check.identical_to_reference(warm, gate.reference),
        "runs": len(warm),
        "steps_per_pass": workload.steps,
        "tumor_center": workload.configs[0].initial.T.center,
    }
    min_passes = 1 if workload.smoke else (2 if trace else 3)
    walls, setups, traced_walls, layers, spans = [], [], [], [], []
    start = time.perf_counter()
    while len(walls) < min_passes or time.perf_counter() - start < seconds:
        if not trace:
            setups.append(time_setup(workload))
        wall, outcomes, _ = timed_pass(workload)
        walls.append(wall)
        gate.add(outcomes)
        if trace:
            tracer = Tracer()
            wall, outcomes, written = timed_pass(workload, tracer)
            traced_walls.append(wall)
            gate.add(outcomes)
            m = tracer.layer_metrics(workload.steps)
            m["output.bytes_written"] = written
            m["diagnostics.bound_violation_steps"] = check.bound_violation_steps(outcomes)
            layers.append(m)
            spans.append(tracer)
    info["passes"] = len(walls)
    info["wall_samples_s"] = walls
    if trace:
        # median_low keeps a count an exact sample when the pass count is even
        metrics = {k: statistics.median_low(m[k] for m in layers) for k in layers[0]}
        metrics["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(walls)
        info["traced_wall_samples_s"] = traced_walls
        for i, tracer in enumerate(spans):
            tracer.write(os.path.join(OUT, f"spans-{label}-pass{i}.json"),
                         {"workload": workload.name, "seed": workload.seed, "pass": i})
        return {"metrics": metrics, "info": info}
    wall_s = statistics.median(walls)
    setup_s = statistics.median(setups)
    info["setup_samples_s"] = setups
    metrics = {
        "wall_s": wall_s,
        "setup_s": setup_s,
        # Each pass follows its own set-up; the median of the per-pair
        # differences is steadier than the difference of the two medians.
        "step_ms": statistics.median(w - s for w, s in zip(walls, setups))
        / workload.steps * 1e3,
        "peak_mem_mb": peak["peak_mem_mb"],
    }
    return {"metrics": metrics, "info": info}


def bench(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    workload = Workload(name, seed, smoke)
    gate = Gate(check.load_reference(), require_reference=not smoke)
    label = f"{name}-seed{seed}-trace{int(trace)}" + ("-smoke" if smoke else "")
    result = measure(workload, seconds, trace, gate, label)
    units = PER_LAYER if trace else END_TO_END
    extra = {k: result["metrics"].pop(k) for k in LAYER_TIMES_NOT_ON_EVERY_WORKLOAD
             if k in result["metrics"]}
    result.update({
        "workload": name,
        "env": environment(seed, workload.seeded),
        "correct": gate.failed == 0 and gate.repeatable,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "failure_reasons": gate.reasons[:10],
        "passes_bit_identical": gate.repeatable,
        "units": {k: units[k] for k in result["metrics"]},
        "layer_times_not_on_every_workload": extra,
    })
    with open(os.path.join(OUT, f"result-{label}.json"), "w", encoding="utf-8") as f:
        json.dump(result, f, indent=1)
    return result


def print_result(result: dict) -> None:
    print(f"workload {result['workload']}  env {json.dumps(result['env'])}")
    for key, value in result["metrics"].items():
        print(f"  {key:36s} {value:14.6g} {result['units'][key]}")
    for key, value in result["layer_times_not_on_every_workload"].items():
        unit = LAYER_TIMES_NOT_ON_EVERY_WORKLOAD[key]
        print(f"  {key:36s} {value:14.6g} {unit}  (0 where the workload never calls it)")
    print(f"  info {json.dumps(result['info'])}")
    for why in result["failure_reasons"]:
        print(f"  FAILED {why}")
