"""Time steppers and the run loop.

One step advances the three fields in a fixed uncoupled order: the tumor
field is solved from a linear system (diffusion implicit, negative
reaction coefficients semi-implicit, positive ones explicit), then the
vasculature is updated nodewise in closed form using the fresh tumor
values, then necrosis explicitly from both. A single ``step`` covers the
three variants, which are points on two axes, mass (lumped or consistent)
and reaction treatment (split or explicit):

* ``IMEX_LUMPED`` is the production scheme: lumped mass everywhere. On a
  non-obtuse mesh its tumor system matrix is an M-matrix, so the fields
  provably stay inside [0, K] (and N never decreases).
* ``EXPLICIT_LUMPED`` keeps the implicit lumped diffusion but moves the
  unsplit reactions wholesale to the right-hand side, assembled with the
  consistent mass matrix. It is the comparison scheme whose bound
  violations motivate the splitting.
* ``IMEX_CONSISTENT`` is the splitting without mass lumping: consistent
  mass in the time derivative and in the reaction loads. Its system matrix
  gains positive off-diagonals, which is exactly what breaks positivity.

Before every solve, both lumped variants certify that the tumor system
has the M-matrix structure the bound proofs use, and raise ``SchemeError``
if not. The certificate only reads the matrix. The lumped systems are
symmetric and solved by conjugate gradient; the consistent one is not,
and is solved by BiCGSTAB.

The run loop takes a ``config.RunConfig``, is sequential in time and
writes no files; within a step all nodewise updates are vectorized.
Identical configs produce bit-identical reports.
"""

from __future__ import annotations

from functools import partial
import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import model
# MeshSpec is imported only for perfbench, which times scheme.MeshSpec.build.
from .config import MeshSpec, RunConfig, SchemeVariant, SolverOptions
from .fem import FemContext, build_context, norms
from .linalg import CgError, bicgstab_solve, cg_solve
from .mesh import Triangulation, audit_angles
from .model import ModelParams, State

__all__ = [
    "StepDiagnostics",
    "RunReport",
    "SchemeError",
    "element_diffusivity",
    "step",
    "run",
]


class SchemeError(RuntimeError):
    """A step failed (no convergence, non-finite values, no M-matrix); carries the step index."""

    def __init__(self, step: int, message: str):
        super().__init__(step, message)  # args rebuild the error when unpickled
        self.step = step

    def __str__(self) -> str:
        return f"step {self.step}: {self.args[1]}"


@dataclass
class StepDiagnostics:
    step: int
    time: float
    min_t: float
    max_t: float
    min_n: float
    max_n: float
    min_phi: float
    max_phi: float
    cg_iters: int
    cg_residual: float
    energy_acc: float = 0.0

    def bounds_ok(self, K: float) -> bool:
        return (
            self.min_t >= 0.0
            and self.max_t <= K
            and self.min_phi >= 0.0
            and self.max_phi <= K
            and self.min_n >= 0.0
        )


@dataclass
class RunReport:
    config: RunConfig
    mesh: Triangulation
    steps: list[StepDiagnostics]
    final_state: State
    energy: float  # dt * sum over steps of ||T^k||_{H1}^2
    non_obtuse: bool

    def times(self) -> np.ndarray:
        return np.array([d.time for d in self.steps])


def _field_diag(state: State, cg_iters: int, cg_residual: float) -> StepDiagnostics:
    return StepDiagnostics(
        step=state.step,
        time=state.time,
        min_t=float(state.T.min()),
        max_t=float(state.T.max()),
        min_n=float(state.N.min()),
        max_n=float(state.N.max()),
        min_phi=float(state.Phi.min()),
        max_phi=float(state.Phi.max()),
        cg_iters=cg_iters,
        cg_residual=cg_residual,
    )


def element_diffusivity(ctx: FemContext, T: np.ndarray, Phi: np.ndarray, p: ModelParams) -> np.ndarray:
    """kappa1 * P + kappa0 per element, with P at the vertex averages of T and Phi.

    Evaluating P once per element keeps the coefficient nonnegative
    elementwise, which preserves the matrix sign structure the bound
    proofs need.
    """
    t_avg = (ctx.vertex_sum @ T) / 3.0
    phi_avg = (ctx.vertex_sum @ Phi) / 3.0
    return p.kappa1 * model.vascular_fraction(phi_avg, t_avg, p.K) + p.kappa0


def _check_finite(d: StepDiagnostics) -> None:
    # NaN propagates through min and max and an infinity is one of them, so
    # finite extrema mean finite fields.
    for name, lo, hi in (
        ("T", d.min_t, d.max_t), ("N", d.min_n, d.max_n), ("Phi", d.min_phi, d.max_phi)
    ):
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise SchemeError(d.step, f"non-finite values in {name}")


def _certify_m_matrix(B: sp.csr_matrix, diagonal_slots: np.ndarray, step: int) -> None:
    """Raise ``SchemeError`` unless B has the sign and dominance structure of an M-matrix.

    With slack ``tol = 1e-12 * max diagonal``: every diagonal entry exceeds
    tol, no off-diagonal entry does and no row sum is below -tol. The slack
    absorbs rounding in the geometric factors: on rotated right-angled
    meshes the orthogonal couplings come out near 1e-15 instead of 0. A
    non-finite entry fails one of the three tests, so finiteness is tested
    only then, and the error names the first non-finite entry's row.
    """
    data = B.data

    def row_of(slot) -> int:
        return int(np.searchsorted(B.indptr, slot, side="right")) - 1

    def fail(problem: str):
        bad = ~np.isfinite(data)
        if bad.any():
            problem = f"has a non-finite entry in row {row_of(np.argmax(bad))}"
        raise SchemeError(step, f"system matrix {problem}")

    diag = data[diagonal_slots]
    tol = 1e-12 * diag.max()
    if not diag.min() > tol:
        fail(f"has a nonpositive diagonal entry in row {int(np.argmin(diag))}")
    # Every diagonal entry exceeds tol, so any further such entry is off the diagonal.
    if np.count_nonzero(data > tol) != len(diag):
        above = data > tol
        above[diagonal_slots] = False
        fail(f"has a positive off-diagonal entry in row {row_of(np.argmax(above))}")
    row_sums = B @ np.ones(len(diag))
    if not row_sums.min() >= -tol:
        fail(f"is not row diagonally dominant in row {int(np.argmin(row_sums))}")


def _solve(solve, B, rhs, x0, solver: SolverOptions, step: int):
    try:
        return solve(B, rhs, tol=solver.tol, maxit=solver.maxit or None, x0=x0)
    except CgError as exc:
        raise SchemeError(step, str(exc)) from exc


def step(
    state: State,
    ctx: FemContext,
    p: ModelParams,
    dt: float,
    solver: SolverOptions = SolverOptions(),
    *,
    lumped: bool,
    split: bool,
) -> tuple[State, StepDiagnostics]:
    """One step with lumped (else consistent) mass and split (else explicit) reactions.

    Explicit reactions are the unsplit ones at the old state, entering as
    consistent-mass loads; consistent mass with them is no scheme and
    raises ``ValueError``. The consistent-mass tumor system has positive
    off-diagonals and a mild asymmetry, so it is solved directly by
    Jacobi-scaled BiCGSTAB, and the residual reported is recomputed from
    the returned solution. Its nodal updates equal the lumped ones: the
    mass matrix acts on both sides of their nodewise-defined interpolants
    and cancels.

    The split reactions take the vascular factors of the old state, computed
    once per step for the tumor coefficients and both nodal updates.

    The lumped tumor system is the freshly assembled stiffness matrix with
    the lumped terms added in place at its diagonal slots, rounded as
    ``(A_aa + m_a / dt) + m_a * decay_a``; it therefore has the stiffness
    pattern and equals ``diags(m / dt) + A + diags(m * decay)`` bit for bit.
    Only its ``data`` is written: the pattern arrays belong to the stiffness
    template and are read-only. Before it is solved, the system must pass
    the M-matrix certificate; a violation raises ``SchemeError`` naming the
    step and the offending row.

    The consistent system is written in place on the mass pattern as
    ``(M / dt + A) + M * decay[column]``, the stiffness values entering at
    ``ctx.mass_slots``; it equals ``M.multiply(1 / dt) + A + M @
    diags(decay)`` bit for bit. Only its ``data`` is new: ``indices`` and
    ``indptr`` are the mass matrix's own.

    A solver failure (no convergence, breakdown, non-finite residual)
    raises ``SchemeError`` naming the step, and a non-finite value in a new
    field one naming the field.
    """
    if not (lumped or split):
        raise ValueError("no scheme combines consistent mass with explicit reactions")
    k = state.step + 1
    T, N, Phi = state.T, state.N, state.Phi
    m, M = ctx.lumped, ctx.mass
    A = ctx.stiffness_template.assemble(element_diffusivity(ctx, T, Phi, p))
    diag = ctx.stiffness_template.diagonal_slots
    if split:
        P, root = model.vascular_factors(Phi, T, p.K)
        source, decay = model.imex_coefficients_T(T, N, Phi, P, root, p)
        if lumped:
            A.data[diag] = (A.data[diag] + m / dt) + m * decay
            B = A
            rhs = m * (T / dt + source)
        else:
            data = M.data * (1.0 / dt)
            data[ctx.mass_slots] += A.data
            data += M.data * decay[M.indices]
            B = sp.csr_matrix((data, M.indices, M.indptr), shape=M.shape)
            rhs = M @ (T / dt + source)
    else:
        f1, f2, f3 = model.reactions(T, N, Phi, p)
        A.data[diag] = A.data[diag] + m / dt
        B = A
        rhs = m * (T / dt) + M @ f1

    if lumped:
        _certify_m_matrix(B, diag, k)
        res = _solve(cg_solve, B, rhs, T, solver, k)
        residual = res.residual
    else:
        res = _solve(bicgstab_solve, B, rhs, T, solver, k)
        rhs_norm = float(np.linalg.norm(rhs))
        residual = float(np.linalg.norm(rhs - B @ res.x)) / rhs_norm if rhs_norm else 0.0

    if split:
        phi_new = model.update_phi_node(T, res.x, N, Phi, root, dt, p)
        n_new = model.update_n_node(res.x, N, phi_new, root, dt, p)
    else:
        phi_new = Phi + dt * (M @ f3) / m
        n_new = N + dt * (M @ f2) / m
    new = State(T=res.x, N=n_new, Phi=phi_new, step=k, time=state.time + dt)
    d = _field_diag(new, res.iterations, residual)
    _check_finite(d)
    return new, d


# run() looks its stepper up here on every call, so a caller may swap an entry
# (to time or count steps) without touching the scheme.
_STEPPERS = {v: partial(step, lumped=v.lumped, split=v.split) for v in SchemeVariant}


def initial_state(config: RunConfig, mesh: Triangulation) -> State:
    ic, K = config.initial, config.params.K
    T0, N0, Phi0 = (profile.evaluate(mesh.nodes, K) for profile in (ic.T, ic.N, ic.Phi))
    return State(T=T0, N=N0, Phi=Phi0, step=0, time=0.0)


def run(
    config: RunConfig, on_step: Callable[[Triangulation, State], None] | None = None
) -> RunReport:
    """Execute the configured number of steps and collect per-step diagnostics.

    The accumulated energy is dt * sum_k ||T^k||_{H1}^2 over the computed
    steps. Lumped variants refuse meshes that fail the non-obtuse audit.
    ``on_step(mesh, state)``, when given, sees the initial state and the
    state after every step. No file is written here; the output options are
    for the caller, e.g. ``output.write_run_outputs(report)``.
    """
    mesh = config.mesh.build()
    report_angles = audit_angles(mesh)
    if config.variant.lumped and not report_angles.non_obtuse:
        raise ValueError(
            "mesh fails the non-obtuse audit required by the "
            f"{config.variant.value} scheme: element {report_angles.worst_element} "
            f"has an angle with cosine {-report_angles.max_neg_cosine:.6f}"
        )
    ctx = build_context(mesh)
    state = initial_state(config, mesh)
    if on_step is not None:
        on_step(mesh, state)

    stepper = _STEPPERS[config.variant]
    diags = [_field_diag(state, 0, 0.0)]
    energy = 0.0
    for _ in range(config.n_steps):
        state, d = stepper(state, ctx, config.params, config.dt, solver=config.solver)
        l2, h1 = norms(ctx, state.T)
        energy += config.dt * (l2 * l2 + h1 * h1)
        d.energy_acc = energy
        diags.append(d)
        if on_step is not None:
            on_step(mesh, state)

    return RunReport(
        config=config,
        mesh=mesh,
        steps=diags,
        final_state=state,
        energy=energy,
        non_obtuse=report_angles.non_obtuse,
    )
