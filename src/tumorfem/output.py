"""Writers for per-step CSV, legacy VTK snapshots, and run summaries.

Floats are written with 17 significant digits so files round-trip exactly;
plots are produced externally from these files, the package itself draws
nothing. Each file is rendered to one string and written with one call;
each CSV row, and each VTK block of n values, is one ``%`` format.
``prepare_outputs(config)`` returns the ``on_step`` that writes a run's
snapshots over one VTK geometry; ``write_run_outputs`` writes the rest.
"""

from __future__ import annotations

import os
from operator import attrgetter
from typing import TYPE_CHECKING

import numpy as np

from . import diagnostics
from .mesh import Triangulation

if TYPE_CHECKING:
    from .config import OutputOptions, RunConfig
    from .scheme import RunReport

__all__ = [
    "CSV_HEADER",
    "write_csv",
    "vtk_geometry",
    "write_vtk",
    "write_compare_csv",
    "write_snapshot",
    "prepare_outputs",
    "write_run_outputs",
]

# per_step.csv's columns, each with the StepDiagnostics field it holds; a
# %.17g row writes the integer columns' digits as they are
_COLUMNS = (
    ("step", "step"), ("time", "time"), ("minT", "min_t"), ("maxT", "max_t"),
    ("minN", "min_n"), ("maxN", "max_n"), ("minPhi", "min_phi"), ("maxPhi", "max_phi"),
    ("cg_iters", "cg_iters"), ("cg_residual", "cg_residual"), ("energy_acc", "energy_acc"),
)
CSV_HEADER = ",".join(name for name, _ in _COLUMNS)
# compare.csv pairs the field columns of two runs; the solver columns stay per run
_COMPARED = [c for c in _COLUMNS[2:] if not c[0].startswith("cg_")]


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="ascii") as f:
        f.write(text)


def write_csv(report: RunReport, path: str) -> None:
    """One row per recorded step (step 0 holds the initial diagnostics)."""
    row = ",".join(["%.17g"] * len(_COLUMNS)) + "\n"
    values = attrgetter(*(field for _, field in _COLUMNS))
    rows = "".join(row % values(d) for d in report.steps)
    _write_text(path, f"{CSV_HEADER}\n{rows}")


def vtk_geometry(mesh: Triangulation) -> str:
    """Legacy ASCII VTK text up to and including the ``POINT_DATA`` line."""
    nt = mesh.n_triangles
    points = ("%.17g %.17g 0\n" * mesh.n_vertices) % tuple(mesh.nodes.ravel().tolist())
    cells = ("3 %d %d %d\n" * nt) % tuple(mesh.triangles.ravel().tolist())
    return (
        "# vtk DataFile Version 3.0\ntumorfem snapshot\nASCII\nDATASET UNSTRUCTURED_GRID\n"
        f"POINTS {mesh.n_vertices} double\n{points}"
        f"CELLS {nt} {4 * nt}\n{cells}"
        f"CELL_TYPES {nt}\n" + "5\n" * nt + f"POINT_DATA {mesh.n_vertices}\n"
    )


def write_vtk(path: str, geometry: str, fields: dict[str, np.ndarray]) -> None:
    """Legacy VTK file: ``vtk_geometry`` text followed by nodal scalar fields."""
    blocks = [geometry]
    for name, values in fields.items():
        blocks.append(f"SCALARS {name} double 1\nLOOKUP_TABLE default\n")
        blocks.append(("%.17g\n" * len(values)) % tuple(values.tolist()))
    _write_text(path, "".join(blocks))


def write_compare_csv(report_a: RunReport, report_b: RunReport, path: str) -> None:
    """Joined per-step CSV for side-by-side plotting of two runs on one grid."""
    if len(report_a.steps) != len(report_b.steps):
        raise ValueError("runs have different step counts")
    header = ",".join(["step,time", *(f"{c}_{s}" for s in "ab" for c, _ in _COMPARED)])
    row = ",".join(["%.17g"] * (2 + 2 * len(_COMPARED))) + "\n"
    values = attrgetter(*(field for _, field in _COMPARED))
    rows = [header + "\n"]
    for da, db in zip(report_a.steps, report_b.steps):
        if da.step != db.step or da.time != db.time:
            raise ValueError(f"time grids differ at step {da.step}")
        rows.append(row % (da.step, da.time, *values(da), *values(db)))
    _write_text(path, "".join(rows))


def write_snapshot(directory: str, prefix: str, geometry: str, state) -> None:
    """Write ``state``'s fields on the mesh whose ``vtk_geometry`` is given."""
    path = os.path.join(directory, f"{prefix}_{state.step:06d}.vtk")
    write_vtk(path, geometry, {"T": state.T, "N": state.N, "Phi": state.Phi})


def _make_directories(out: OutputOptions, *names: str) -> None:
    """Create ``out.directory`` and the directories the CSV and summary names,
    and any further ``names``, lead into."""
    os.makedirs(out.directory, exist_ok=True)
    for name in (out.csv_name, out.summary_name, *names):
        os.makedirs(os.path.dirname(os.path.join(out.directory, name)), exist_ok=True)


def prepare_outputs(config: RunConfig):
    """Create the directories of all ``config``'s files; return the ``on_step`` that
    writes a snapshot every ``snapshot_every`` steps and at the last, or ``None``."""
    out = config.output
    _make_directories(out, *((out.vtk_prefix,) if out.snapshot_every else ()))
    if not out.snapshot_every:
        return None
    geometry = ""

    def on_step(mesh: Triangulation, state) -> None:
        # the mesh is fixed for the run: render its VTK text on the first call
        nonlocal geometry
        geometry = geometry or vtk_geometry(mesh)
        if state.step % out.snapshot_every == 0 or state.step == config.n_steps:
            write_snapshot(out.directory, out.vtk_prefix, geometry, state)

    return on_step


def write_run_outputs(report: RunReport) -> None:
    """Write the per-step CSV and the full summary; snapshots need ``prepare_outputs``."""
    out = report.config.output
    _make_directories(out)
    write_csv(report, os.path.join(out.directory, out.csv_name))
    summary = "".join(line + "\n" for line in diagnostics.run_summary_lines(report))
    _write_text(os.path.join(out.directory, out.summary_name), summary)
