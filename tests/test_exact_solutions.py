"""Convergence to the model's own solutions, not to a finer run.

``test_convergence.py`` measures each error against a finer run of the same
scheme, which a coefficient that is wrong but consistent passes. Here the
reference is a solution of the model itself.

* Linear case. With ``Phi = 0``, ``N0 = 0`` and ``beta1 = 0`` the vascular
  fraction vanishes, so the diffusivity is ``kappa0``, ``Phi`` stays 0 and,
  whatever the other rates, ``T_t = kappa0 Lap T - alpha T``,
  ``N_t = alpha T`` with the natural boundary condition. For
  ``c = cos(pi x) cos(pi y)``, ``lam = 2 pi^2 kappa0 + alpha`` and
  ``a >= |b|`` it is solved by ``T = a e^{-alpha t} + b c e^{-lam t}`` and
  ``N = a (1 - e^{-alpha t}) + b alpha c (1 - e^{-lam t}) / lam``. These
  data reach the boundary, unlike the presets' Gaussians. Errors are taken
  in the lumped-mass L2 norm, the larger of T's and N's. The max nodal error
  sits at the two corners that ``build_structured_mesh`` gives one triangle
  each, (1, 0) and (0, 1); it is tested on its own there, at a lower order.
* ODE limit. On spatially uniform data the stiffness rows sum to zero, so
  every node follows the scheme's time discretization of
  ``(T, N, Phi)' = (f1, f2, f3)``, the full nonlinear reactions. The
  reference is ``solve_ivp`` (Radau). All three variants are first order:
  the comparison schemes are consistent, and their failure is the bounds.

Measured (``-s`` prints the tables): h study, nx = 8 to 64, lumped L2
errors 1.57e-4, 6.44e-5, 1.99e-5, 5.08e-6 (orders 1.28, 1.70, 1.96); corner
max errors 1.67e-3, 1.34e-3, 6.76e-4, 2.37e-4 (orders 0.32, 0.98, 1.51); dt
study orders 0.98, 0.99, 0.98; ODE-limit orders 0.97 to 1.01, with
imex-consistent equal to imex-lumped up to the solves (on uniform data both
masses give the same row sums). The gates sit below them. Against a reference
with ``kappa0`` 5% off, the nx = 64 error reads 9.6e-5, ten times its gate.
"""

from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from tumorfem.cli import TABLE_BOUNDS
from tumorfem.config import SchemeVariant, SolverOptions
from tumorfem.fem import FemContext
from tumorfem.mesh import build_structured_mesh
from tumorfem.model import State, reactions
from tumorfem.scheme import step

SOLVER = SolverOptions(tol=1e-13, maxit=0)
# Every rate but alpha and beta1 is left as the bounds table has it: with
# Phi = N0 = 0 none of them enters.
LINEAR = replace(TABLE_BOUNDS, kappa0=1e-2, alpha=0.5, beta1=0.0)
A, B = 0.5, 0.4


def exact(nodes: np.ndarray, t: float, kappa0: float = LINEAR.kappa0) -> np.ndarray:
    """The linear case's (T, N) at ``nodes`` and time ``t``, one row per field."""
    alpha = LINEAR.alpha
    lam = 2.0 * np.pi**2 * kappa0 + alpha
    c = np.cos(np.pi * nodes[:, 0]) * np.cos(np.pi * nodes[:, 1])
    T = A * np.exp(-alpha * t) + B * c * np.exp(-lam * t)
    N = A * (1.0 - np.exp(-alpha * t)) + B * alpha * c * (1.0 - np.exp(-lam * t)) / lam
    return np.stack([T, N])


def linear_run(nx: int, dt: float, tf: float):
    """imex-lumped on the unit square from the exact data at t = 0: the mesh,
    its lumped mass and the final (T, N), one row per field."""
    mesh = build_structured_mesh(nx, nx, 1.0, 1.0)
    ctx = FemContext(mesh)
    T0, N0 = exact(mesh.nodes, 0.0)
    state = State(T=T0, N=N0, Phi=np.zeros(mesh.n_vertices), step=0, time=0.0)
    for _ in range(round(tf / dt)):
        state, _ = step(state, ctx, LINEAR, dt, SOLVER, variant=SchemeVariant.IMEX_LUMPED)
    assert not state.Phi.any()
    return mesh, ctx.lumped, np.stack([state.T, state.N])


def lumped_l2(m: np.ndarray, error: np.ndarray) -> float:
    """The larger of the fields' lumped-mass L2 norms."""
    return float(np.sqrt((error * error) @ m).max())


def _orders(errors: list[float]) -> np.ndarray:
    # each refinement halves h or dt
    return np.log2(np.array(errors[:-1]) / np.array(errors[1:]))


def test_linear_case_converges_in_h_to_the_closed_form():
    tf = 0.05
    l2, corner = [], []
    for nx in (8, 16, 32, 64):
        mesh, m, fields = linear_run(nx, 2.5e-4, tf)
        error = fields - exact(mesh.nodes, tf)
        l2.append(lumped_l2(m, error))
        corners = [nx, nx * (nx + 1)]  # (1, 0) and (0, 1): one triangle each
        assert np.allclose(mesh.nodes[corners], [(1.0, 0.0), (0.0, 1.0)])
        corner.append(float(np.abs(error[:, corners]).max()))
        assert np.abs(error).max() == corner[-1]
    # The finest gate is tight enough to catch a kappa0 5% off.
    off = lumped_l2(m, fields - exact(mesh.nodes, tf, 1.05 * LINEAR.kappa0))
    print(f"\nlumped L2 errors {l2}, orders {_orders(l2)}"
          f"\ncorner max errors {corner}, orders {_orders(corner)}"
          f"\nagainst kappa0 * 1.05 at nx = 64: {off:.3e}")
    assert l2[-1] < 1e-5 < off
    assert _orders(l2).min() >= 1.2 and _orders(l2)[-1] >= 1.8
    assert np.all(np.diff(corner) < 0.0) and _orders(corner)[-1] >= 0.9


def test_linear_case_converges_in_dt_to_the_closed_form():
    tf = 0.4
    errors = []
    for n in (8, 16, 32, 64):
        mesh, m, fields = linear_run(64, tf / n, tf)
        errors.append(lumped_l2(m, fields - exact(mesh.nodes, tf)))
    orders = _orders(errors)
    print(f"\ndt errors {errors}, orders {orders}")
    assert orders.min() >= 0.9


ODE = replace(TABLE_BOUNDS, gamma=0.5)
ODE_START = (0.3, 0.1, 0.4)  # T, N, Phi


def _ode_reference(tf: float) -> np.ndarray:
    sol = solve_ivp(lambda t, y: reactions(*y, ODE), (0.0, tf), ODE_START,
                    method="Radau", rtol=1e-13, atol=1e-15)
    assert sol.success
    return sol.y[:, -1]


@pytest.mark.parametrize("variant", list(SchemeVariant), ids=lambda v: v.value)
def test_uniform_data_follow_the_reaction_ode(variant):
    tf = 1.0
    reference = _ode_reference(tf)
    mesh = build_structured_mesh(2, 2, 1.0, 1.0)
    ctx = FemContext(mesh)
    errors = []
    for n in (16, 32, 64, 128):
        T, N, Phi = (np.full(mesh.n_vertices, v) for v in ODE_START)
        state = State(T=T, N=N, Phi=Phi, step=0, time=0.0)
        for _ in range(n):
            state, _ = step(state, ctx, ODE, tf / n, SOLVER, variant=variant)
        fields = np.stack([state.T, state.N, state.Phi])
        assert np.ptp(fields, axis=1).max() < 1e-10  # uniform, up to the solves
        errors.append(float(np.abs(fields - reference[:, None]).max()))
    orders = _orders(errors)
    print(f"\n{variant.value} ODE-limit errors {errors}, orders {orders}")
    assert orders.min() >= 0.9
