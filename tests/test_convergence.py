"""Convergence of the production scheme under mesh and time-step refinement.

imex-lumped with the bounds-comparison parameters, except kappa1 = kappa0 =
1e-2 so that diffusion acts on the time scale of the study, and initial data
the meshes resolve (the presets' tumor seed, width 0.015, is narrower than
their h = 0.025 and stays outside the asymptotic regime). Errors are the
max over T, N and Phi of the max nodal difference from a finer run at the
nodes both meshes share. Lumped P1 is second order at the nodes of uniform
grids; the one-step splitting is first order in time. The gates sit below
the measured orders (h: 2.13 and 2.36; dt: 1.03 and 1.09).
"""

from dataclasses import replace

import numpy as np

from tumorfem.cli import TABLE_BOUNDS
from tumorfem.scheme import (
    ConstantProfile,
    GaussianProfile,
    InitialConditions,
    MeshSpec,
    RunConfig,
    SchemeVariant,
    SolverOptions,
    run,
)

INITIAL = InitialConditions(
    T=GaussianProfile(base=0.0, amplitude=0.8, center=(0.5, 0.5), width=0.1),
    N=GaussianProfile(base=0.3, amplitude=-0.2, center=(0.5, 0.5), width=0.15),
    Phi=ConstantProfile(value=0.5),
)


def _final_fields(nx: int, dt: float, tf: float) -> np.ndarray:
    """Final (T, N, Phi) on the (nx + 1) x (nx + 1) node grid of the unit square."""
    cfg = RunConfig(
        mesh=MeshSpec(nx=nx, ny=nx, lx=1.0, ly=1.0),
        params=replace(TABLE_BOUNDS, kappa1=1e-2, kappa0=1e-2),
        dt=dt,
        tf=tf,
        variant=SchemeVariant.IMEX_LUMPED,
        initial=INITIAL,
        solver=SolverOptions(tol=1e-12, maxit=0),
    )
    final = run(cfg).final_state
    return np.stack([final.T, final.N, final.Phi]).reshape(3, nx + 1, nx + 1)


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
