"""Writers for per-step CSV, legacy VTK snapshots, and run summaries.

Floats are written with 17 significant digits so files round-trip exactly;
plots are produced externally from these files, the package itself draws
nothing. Each file is rendered to one string and written with one call.
The VTK geometry is fixed for a run, so a caller renders it once with
``vtk_geometry`` and passes the text to every snapshot of that run. Each
VTK block of n values (points, cells, one field) is one ``%`` format over
a tuple of them.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING

import numpy as np

from . import diagnostics
from .mesh import Triangulation

if TYPE_CHECKING:
    from .config import OutputOptions
    from .scheme import RunReport

__all__ = [
    "CSV_HEADER",
    "write_csv",
    "vtk_geometry",
    "write_vtk",
    "write_compare_csv",
    "write_snapshot",
    "make_directories",
    "write_run_outputs",
]

CSV_HEADER = "step,time,minT,maxT,minN,maxN,minPhi,maxPhi,cg_iters,cg_residual,energy_acc"


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="ascii") as f:
        f.write(text)


def write_csv(report: RunReport, path: str) -> None:
    """One row per recorded step (step 0 holds the initial diagnostics)."""
    rows = "".join(
        f"{d.step},{d.time:.17g},{d.min_t:.17g},{d.max_t:.17g},{d.min_n:.17g},"
        f"{d.max_n:.17g},{d.min_phi:.17g},{d.max_phi:.17g},{d.cg_iters},"
        f"{d.cg_residual:.17g},{d.energy_acc:.17g}\n"
        for d in report.steps
    )
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
    cols = ["minT", "maxT", "minN", "maxN", "minPhi", "maxPhi", "energy_acc"]
    header = "step,time," + ",".join(f"{c}_a" for c in cols) + "," + ",".join(
        f"{c}_b" for c in cols
    )
    attrs = ["min_t", "max_t", "min_n", "max_n", "min_phi", "max_phi", "energy_acc"]
    rows = [header + "\n"]
    for da, db in zip(report_a.steps, report_b.steps):
        if da.step != db.step or da.time != db.time:
            raise ValueError(f"time grids differ at step {da.step}")
        values = [getattr(da, a) for a in attrs] + [getattr(db, a) for a in attrs]
        rows.append(f"{da.step},{da.time:.17g}," + ",".join(f"{v:.17g}" for v in values) + "\n")
    _write_text(path, "".join(rows))


def write_snapshot(directory: str, prefix: str, geometry: str, state) -> None:
    """Write ``state``'s fields on the mesh whose ``vtk_geometry`` is given."""
    write_vtk(
        os.path.join(directory, f"{prefix}_{state.step:06d}.vtk"),
        geometry,
        {"T": state.T, "N": state.N, "Phi": state.Phi},
    )


def make_directories(out: OutputOptions) -> None:
    """Create ``out.directory`` and the directories the CSV and summary names,
    and the VTK prefix when snapshots are on, lead into."""
    os.makedirs(out.directory, exist_ok=True)
    prefix = (out.vtk_prefix,) if out.snapshot_every > 0 else ()
    for name in (out.csv_name, out.summary_name, *prefix):
        os.makedirs(os.path.dirname(os.path.join(out.directory, name)), exist_ok=True)


def write_run_outputs(report: RunReport) -> None:
    """Write the per-step CSV and the full summary, the bytes ``tumorfem run`` writes."""
    out = report.config.output
    make_directories(out)
    write_csv(report, os.path.join(out.directory, out.csv_name))
    _write_text(
        os.path.join(out.directory, out.summary_name),
        "".join(line + "\n" for line in diagnostics.run_summary_lines(report)),
    )
