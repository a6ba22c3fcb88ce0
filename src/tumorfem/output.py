"""Writers for per-step CSV, legacy VTK snapshots, and run summaries.

Floats are written with 17 significant digits so files round-trip exactly;
plots are produced externally from these files, the package itself draws
nothing. Each file is rendered to one string and written with one call;
each CSV row, and each VTK block of n values, is one ``%`` format.
A run writes into its one directory under the fixed names of
``OutputOptions``. ``prepare_outputs(config)`` creates that directory and
returns the ``on_step`` that writes the run's snapshots with
``write_snapshot``, the one VTK writer, over one ``vtk_geometry`` text;
``write_run_outputs`` writes the rest.
"""

from __future__ import annotations

import os
from operator import attrgetter
from pathlib import Path

from . import diagnostics
from .config import OutputOptions, RunConfig
from .mesh import Triangulation
from .scheme import RunReport

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


def write_csv(report: RunReport, path: str) -> None:
    """One row per recorded step (step 0 holds the initial diagnostics)."""
    row = ",".join(["%.17g"] * len(_COLUMNS)) + "\n"
    values = attrgetter(*(field for _, field in _COLUMNS))
    rows = "".join(row % values(d) for d in report.steps)
    Path(path).write_text(f"{CSV_HEADER}\n{rows}", encoding="ascii")


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
    Path(path).write_text("".join(rows), encoding="ascii")


def write_snapshot(directory: str, geometry: str, state) -> None:
    """Write the legacy VTK snapshot of ``state``: the ``vtk_geometry`` text of
    its mesh, then one block of nodal values for each of T, N and Phi."""
    values = "%.17g\n" * len(state.T)
    blocks = [geometry]
    for name in ("T", "N", "Phi"):
        blocks.append(f"SCALARS {name} double 1\nLOOKUP_TABLE default\n")
        blocks.append(values % tuple(getattr(state, name).tolist()))
    path = Path(directory, f"{OutputOptions.vtk_prefix}_{state.step:06d}.vtk")
    path.write_text("".join(blocks), encoding="ascii")


def prepare_outputs(config: RunConfig):
    """Create ``config``'s output directory; return the ``on_step`` that calls
    ``write_snapshot``, the one VTK writer, every ``snapshot_every`` steps and at
    the last, or ``None``."""
    out = config.output
    os.makedirs(out.directory, exist_ok=True)
    if not out.snapshot_every:
        return None
    geometry = ""

    def on_step(mesh: Triangulation, state) -> None:
        # the mesh is fixed for the run: render its VTK text on the first call
        nonlocal geometry
        geometry = geometry or vtk_geometry(mesh)
        if state.step % out.snapshot_every == 0 or state.step == config.n_steps:
            write_snapshot(out.directory, geometry, state)

    return on_step


def write_run_outputs(report: RunReport) -> None:
    """Write the per-step CSV and the full summary; snapshots need ``prepare_outputs``."""
    out = report.config.output
    os.makedirs(out.directory, exist_ok=True)
    write_csv(report, os.path.join(out.directory, out.csv_name))
    summary = "".join(line + "\n" for line in diagnostics.run_summary_lines(report))
    Path(out.directory, out.summary_name).write_text(summary, encoding="ascii")
