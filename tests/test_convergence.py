"""Convergence of the production scheme under mesh and time-step refinement.

imex-lumped with the bounds-comparison parameters, except kappa1 = kappa0 =
1e-2 so that diffusion acts on the time scale of the study, and initial data
the meshes resolve (the presets' tumor seed, width 0.015, is narrower than
their h = 0.025 and stays outside the asymptotic regime). Errors are the
max over T, N and Phi of the max nodal difference from a finer run at the
nodes both meshes share. Lumped P1 is second order at the nodes of uniform
grids; the one-step splitting is first order in time. The gates sit below
the measured orders (h: 2.13 and 2.36; dt: 1.03 and 1.09).

The same studies run on two nested families beyond the uniform grid:
graded right-angled meshes (``graded_mesh(5, 5, seed=5)`` scaled to the
unit square, every cell halved per level, each sub-cell keeping its
parent's diagonal) and a strictly acute mesh (``acute_mesh(10, 12)`` scaled
by 1 / 10.5, each triangle split into four at its edge midpoints, which
keeps every angle). Measured orders: graded h 1.63 and 2.22, acute h 2.09
and 2.17; dt 1.04 and 1.09 (graded), 1.03 and 1.09 (acute). The gates sit
below them. The graded family's first h order is pre-asymptotic: over
seeds 0-5 it reads 1.63 to 2.09, and the second 2.17 to 2.33.
"""

from dataclasses import replace

import numpy as np
import pytest

from tumorfem.cli import TABLE_BOUNDS
from tumorfem.config import (
    ConstantProfile,
    GaussianProfile,
    InitialConditions,
    MeshSpec,
    RunConfig,
    SchemeVariant,
    SolverOptions,
)
from tumorfem.fem import build_context
from tumorfem.mesh import audit_angles, triangulation_from_arrays
from tumorfem.model import State
from tumorfem.scheme import run, step

from test_assembly_equivalence import acute_mesh, graded_mesh

INITIAL = InitialConditions(
    T=GaussianProfile(base=0.0, amplitude=0.8, center=(0.5, 0.5), width=0.1),
    N=GaussianProfile(base=0.3, amplitude=-0.2, center=(0.5, 0.5), width=0.15),
    Phi=ConstantProfile(value=0.5),
)
PARAMS = replace(TABLE_BOUNDS, kappa1=1e-2, kappa0=1e-2)
SOLVER = SolverOptions(tol=1e-12, maxit=0)


def _final_fields(nx: int, dt: float, tf: float) -> np.ndarray:
    """Final (T, N, Phi) on the (nx + 1) x (nx + 1) node grid of the unit square."""
    cfg = RunConfig(
        mesh=MeshSpec(nx=nx, ny=nx, lx=1.0, ly=1.0),
        params=PARAMS,
        dt=dt,
        tf=tf,
        variant=SchemeVariant.IMEX_LUMPED,
        initial=INITIAL,
        solver=SOLVER,
    )
    final = run(cfg).final_state
    return np.stack([final.T, final.N, final.Phi]).reshape(3, nx + 1, nx + 1)


def _final_on(mesh, dt: float, tf: float) -> np.ndarray:
    """Final (T, N, Phi) of imex-lumped on ``mesh``, one row per field."""
    ctx = build_context(mesh)
    T, N, Phi = (f.evaluate(mesh.nodes, PARAMS.K) for f in (INITIAL.T, INITIAL.N, INITIAL.Phi))
    state = State(T=T, N=N, Phi=Phi, step=0, time=0.0)
    for _ in range(round(tf / dt)):
        state, _ = step(state, ctx, PARAMS, dt, SOLVER, variant=SchemeVariant.IMEX_LUMPED)
    return np.stack([state.T, state.N, state.Phi])


def _orders(errors: list[float]) -> np.ndarray:
    # each refinement halves h or dt
    return np.log2(np.array(errors[:-1]) / np.array(errors[1:]))


def test_second_order_in_h_at_the_nodes():
    reference = _final_fields(80, 1e-3, 0.1)
    errors = []
    for nx in (10, 20, 40):
        stride = 80 // nx
        shared = reference[:, ::stride, ::stride]
        errors.append(float(np.abs(_final_fields(nx, 1e-3, 0.1) - shared).max()))
    orders = _orders(errors)
    print(f"\nh errors {errors}, orders {orders}")
    assert errors[-1] < 1e-2
    assert orders.min() >= 1.7


def test_first_order_in_dt():
    tf = 0.32
    reference = _final_fields(20, tf / 256, tf)
    errors = [float(np.abs(_final_fields(20, tf / n, tf) - reference).max()) for n in (8, 16, 32)]
    orders = _orders(errors)
    print(f"\ndt errors {errors}, orders {orders}")
    assert errors[-1] < 1e-2
    assert orders.min() >= 0.9


def graded_level(level):
    """``graded_mesh(5, 5, seed=5)`` with every cell halved ``level`` times,
    on the unit square; its nodes are the (5 * 2**level + 1)**2 grid, row by row."""
    mesh = graded_mesh(5, 5, seed=5, halvings=level)
    return triangulation_from_arrays(mesh.nodes / mesh.nodes.max(axis=0), mesh.triangles)


def midpoint_refinement(mesh):
    """Each triangle split into four at its edge midpoints, which keeps every
    angle. The old nodes keep their indices; the midpoints follow them."""
    nodes, midpoints, triangles = mesh.nodes.tolist(), {}, []

    def midpoint(a, b):
        key = (min(a, b), max(a, b))
        if key not in midpoints:
            midpoints[key] = len(nodes)
            nodes.append(((mesh.nodes[a] + mesh.nodes[b]) / 2.0).tolist())
        return midpoints[key]

    for a, b, c in mesh.triangles.tolist():
        ab, bc, ca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
        triangles += [(a, ab, ca), (ab, b, bc), (ca, bc, c), (ab, bc, ca)]
    return triangulation_from_arrays(nodes, triangles)


def acute_levels(count):
    """``acute_mesh(10, 12)`` scaled by 1 / 10.5 (about the unit square),
    then ``count - 1`` midpoint refinements of it."""
    base = acute_mesh(10, 12)
    levels = [triangulation_from_arrays(base.nodes / 10.5, base.triangles)]
    while len(levels) < count:
        levels.append(midpoint_refinement(levels[-1]))
    return levels


def _graded_h_errors():
    # levels 2, 3, 4 against level 5; node (i, j) of level l is node
    # (2**(5 - l) i, 2**(5 - l) j) of level 5
    reference = _final_on(graded_level(5), 1e-2, 0.1).reshape(3, 161, 161)
    errors = []
    for level in (2, 3, 4):
        mesh = graded_level(level)
        assert audit_angles(mesh).non_obtuse
        stride = 2 ** (5 - level)
        shared = reference[:, ::stride, ::stride].reshape(3, -1)
        errors.append(float(np.abs(_final_on(mesh, 1e-2, 0.1) - shared).max()))
    return errors


def _acute_h_errors():
    # levels 0, 1, 2 against level 3, at the first n nodes of each
    levels = acute_levels(4)
    assert all(audit_angles(mesh).strictly_acute for mesh in levels)
    reference = _final_on(levels[3], 1e-2, 0.1)
    return [float(np.abs(_final_on(mesh, 1e-2, 0.1) - reference[:, :mesh.n_vertices]).max())
            for mesh in levels[:3]]


@pytest.mark.parametrize("family, errors_of, gate", [
    ("graded", _graded_h_errors, 1.4),
    ("acute", _acute_h_errors, 1.8),
], ids=["graded", "acute"])
def test_second_order_in_h_on_nested_families(family, errors_of, gate):
    errors = errors_of()
    orders = _orders(errors)
    print(f"\n{family} h errors {errors}, orders {orders}")
    assert errors[-1] < 1e-2
    assert orders.min() >= gate


@pytest.mark.parametrize("family, make_mesh", [
    ("graded", lambda: graded_level(2)),
    ("acute", lambda: acute_levels(2)[1]),
], ids=["graded", "acute"])
def test_first_order_in_dt_on_nested_families(family, make_mesh):
    mesh, tf = make_mesh(), 0.32
    reference = _final_on(mesh, tf / 256, tf)
    errors = [float(np.abs(_final_on(mesh, tf / n, tf) - reference).max()) for n in (8, 16, 32)]
    orders = _orders(errors)
    print(f"\n{family} dt errors {errors}, orders {orders}")
    assert errors[-1] < 1e-2
    assert orders.min() >= 0.9
