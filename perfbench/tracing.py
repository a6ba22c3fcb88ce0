"""Spans around the module-level names that ``tumorfem.scheme.run`` calls.

The tracer replaces each traced name with a timing wrapper for the length
of a ``with tracer.installed():`` block and puts the original back on exit.
Wrappers only read clocks and record what the wrapped call returned, so a
traced run computes exactly the numbers an untraced one does.

A span is ``(name, start, end, parent, run, step)``: ``parent`` is the
index of the enclosing span (-1 at top level), ``run`` the label of the
config being run and ``step`` the time step being taken (0 during set-up).
Spans stay in memory until ``write`` is called.
"""

from __future__ import annotations

import contextlib
import json
import time
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from tumorfem import cli, diagnostics, fem, linalg, model, output, scheme

# Span name for each traced attribute, as (owner, attribute, span name).
TRACED = (
    (scheme.MeshSpec, "build", "mesh.build"),
    (scheme, "audit_angles", "mesh.audit"),
    (scheme, "build_context", "fem.context"),
    (scheme, "element_diffusivity", "scheme.diffusivity"),
    (scheme, "cg_solve", "linalg.cg"),
    (scheme, "norms", "fem.norms"),
    (fem.StiffnessTemplate, "assemble", "fem.assemble"),
    (model, "imex_coefficients_T", "model.coefficients"),
    (model, "reactions", "model.reactions"),
    (model, "update_phi_node", "model.nodal"),
    (model, "update_n_node", "model.nodal"),
    (output, "write_snapshot", "output.vtk"),
    (output, "write_run_outputs", "output.run_outputs"),
    (diagnostics, "run_summary_lines", "diagnostics.summary"),
    (scheme, "run", "scheme.run"),
    (cli, "run", "scheme.run"),
    (cli, "main", "cli.main"),
)

# Spans whose time is divided by the number of steps taken ("per step").
PER_STEP = {
    "fem.assemble": "fem.assemble_ms",
    "fem.norms": "fem.norms_ms",
    "scheme.diffusivity": "scheme.diffusivity_ms",
    "scheme.stepper": "scheme.stepper_ms",
    "model.coefficients": "model.coefficients_ms",
    "model.reactions": "model.reactions_ms",
    "model.nodal": "model.nodal_ms",
    "linalg.cg": "linalg.cg_ms",
}

# CG touches the matrix once and n-vectors 16 times per iteration:
# A @ p (read p, write Ap), p @ Ap (2), x and r updates (3 each),
# norm of r (1), r @ z (2), p update (3).
_CG_VECTOR_PASSES = 16


def csr_bytes(A) -> int:
    return int(A.data.nbytes + A.indices.nbytes + A.indptr.nbytes)


def _array_bytes(obj) -> int:
    """Bytes of the numpy arrays and sparse matrices an object holds."""
    total = 0
    for value in vars(obj).values():
        if isinstance(value, np.ndarray):
            total += value.nbytes
        elif sp.issparse(value):
            total += csr_bytes(value.tocsr())
    return total


@dataclass
class Tracer:
    spans: list = field(default_factory=list)
    run_label: str = ""
    step: int = 0
    _stack: list = field(default_factory=list)
    # Counts recorded at the layer boundaries.
    cg_solves: int = 0
    cg_iters: int = 0
    cg_bytes: int = 0  # sum over solves of iterations * bytes per iteration
    cg_residual_max: float = 0.0
    cg_failures: int = 0
    assembles: int = 0
    assemble_bytes: int = 0
    nnz_max: int = 0

    def _wrap(self, fn, name):
        tracer = self

        def traced(*args, **kwargs):
            if name == "scheme.run":
                tracer.run_label = args[0].label
                tracer.step = 0
            elif name == "scheme.stepper":
                tracer.step = args[0].step + 1
            parent = tracer._stack[-1] if tracer._stack else -1
            index = len(tracer.spans)
            tracer.spans.append(None)
            tracer._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except linalg.CgError:
                tracer.cg_failures += 1
                raise
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans[index] = (name, start, end, parent, tracer.run_label, tracer.step)
            tracer._count(name, args, result)
            return result

        return traced

    def _count(self, name, args, result) -> None:
        if name == "linalg.cg":
            A, b = args[0], args[1]
            self.cg_solves += 1
            self.cg_iters += result.iterations
            self.cg_bytes += result.iterations * (
                csr_bytes(A) + _CG_VECTOR_PASSES * b.nbytes
            )
            self.cg_residual_max = max(self.cg_residual_max, result.residual)
        elif name == "fem.assemble" and self.step > 0:
            template, coeff = args[0], args[1]
            self.assembles += 1
            self.assemble_bytes += (
                _array_bytes(template) + np.asarray(coeff).nbytes + csr_bytes(result)
            )
            self.nnz_max = max(self.nnz_max, result.nnz)

    @contextlib.contextmanager
    def installed(self):
        """Swap every traced name for a wrapper, and put the originals back on exit."""
        saved = [(owner, attr, vars(owner)[attr]) for owner, attr, _ in TRACED]
        steppers = dict(scheme._STEPPERS)
        try:
            for (owner, attr, original), (_, _, name) in zip(saved, TRACED):
                setattr(owner, attr, self._wrap(original, name))
            for variant, fn in steppers.items():
                scheme._STEPPERS[variant] = self._wrap(fn, "scheme.stepper")
            yield self
        finally:
            for owner, attr, original in saved:
                setattr(owner, attr, original)
            scheme._STEPPERS.update(steppers)

    def layer_metrics(self, steps: int) -> dict[str, float]:
        """Per-layer metrics from the recorded spans and counts.

        ``steps`` is the number of time steps the traced pass took; per-step
        metrics divide the time spent in time steps by it.
        """
        total = {}
        child = [0.0] * len(self.spans)
        for _name, start, end, parent, _run, _step in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_time = {}
        for i, (name, start, end, _parent, _run, step) in enumerate(self.spans):
            key = (name, step > 0)
            total[key] = total.get(key, 0.0) + (end - start)
            self_time[key] = self_time.get(key, 0.0) + (end - start - child[i])

        def seconds(name, in_step=None):
            keys = [(name, True), (name, False)] if in_step is None else [(name, in_step)]
            return sum(total.get(k, 0.0) for k in keys)

        per_step = 1e3 / max(steps, 1)
        m = {metric: seconds(name, True) * per_step for name, metric in PER_STEP.items()}
        m["scheme.stepper_self_ms"] = self_time.get(("scheme.stepper", True), 0.0) * per_step
        m.update({
            "mesh.build_s": seconds("mesh.build"),
            "mesh.audit_s": seconds("mesh.audit"),
            "fem.context_s": seconds("fem.context"),
            "fem.nnz": self.nnz_max,
            "fem.assemble_bytes": self.assemble_bytes / max(self.assembles, 1),
            "linalg.cg_iters": self.cg_iters,
            "linalg.cg_iters_per_solve": self.cg_iters / max(self.cg_solves, 1),
            "linalg.cg_residual_max": self.cg_residual_max,
            "linalg.cg_failures": self.cg_failures,
            "linalg.cg_bytes_per_iter": self.cg_bytes / max(self.cg_iters, 1),
            "output.vtk_ms": seconds("output.vtk") * 1e3,
            "output.run_outputs_ms": seconds("output.run_outputs") * 1e3,
            "diagnostics.summary_ms": seconds("diagnostics.summary") * 1e3,
            "cli.self_s": sum(v for (n, _), v in self_time.items() if n == "cli.main"),
        })
        return m

    def write(self, path: str, extra: dict) -> None:
        fields = ["name", "start", "end", "parent", "run", "step"]
        with open(path, "w", encoding="utf-8") as f:
            json.dump({**extra, "fields": fields, "spans": self.spans}, f)

