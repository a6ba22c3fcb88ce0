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

The run loop is sequential in time and writes no files; within a step all
nodewise updates are vectorized. Identical configs produce bit-identical
reports.
"""

from __future__ import annotations

import enum
import functools
import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import model
from .fem import FemContext, build_context, norms
from .linalg import CgError, cg_solve
from .mesh import Triangulation, audit_angles, build_structured_mesh, read_mesh
from .model import ModelParams, State

__all__ = [
    "SchemeVariant",
    "GaussianProfile",
    "ConstantProfile",
    "InitialConditions",
    "MeshSpec",
    "SolverOptions",
    "OutputOptions",
    "RunConfig",
    "StepDiagnostics",
    "RunReport",
    "SchemeError",
    "element_diffusivity",
    "step",
    "run",
]


class SchemeError(RuntimeError):
    """A step failed (non-convergence or non-finite values); carries the step index."""

    def __init__(self, step: int, message: str):
        super().__init__(f"step {step}: {message}")
        self.step = step


class SchemeVariant(enum.Enum):
    IMEX_LUMPED = "imex-lumped"
    EXPLICIT_LUMPED = "explicit-lumped"
    IMEX_CONSISTENT = "imex-consistent"


@dataclass(frozen=True)
class GaussianProfile:
    """base + amplitude * exp(-|x - center|^2 / width^2), clipped to [0, K]."""

    base: float = 0.0
    amplitude: float = 1.0
    center: tuple[float, float] = (0.5, 0.5)
    width: float = 0.1

    def __post_init__(self):
        if not all(map(math.isfinite, (self.base, self.amplitude, *self.center, self.width))):
            raise ValueError("Gaussian profile parameters must be finite")
        if self.width <= 0.0:
            raise ValueError("Gaussian profile width must be positive")

    def evaluate(self, nodes: np.ndarray, K: float) -> np.ndarray:
        r2 = (nodes[:, 0] - self.center[0]) ** 2 + (nodes[:, 1] - self.center[1]) ** 2
        v = self.base + self.amplitude * np.exp(-r2 / self.width**2)
        return np.minimum(np.maximum(v, 0.0), K)


@dataclass(frozen=True)
class ConstantProfile:
    value: float = 0.0

    def __post_init__(self):
        if not math.isfinite(self.value):
            raise ValueError("constant profile value must be finite")

    def evaluate(self, nodes: np.ndarray, K: float) -> np.ndarray:
        return np.full(nodes.shape[0], min(max(self.value, 0.0), K))


Profile = GaussianProfile | ConstantProfile


@dataclass(frozen=True)
class InitialConditions:
    T: Profile
    N: Profile
    Phi: Profile

    def interpolate(self, nodes: np.ndarray, K: float) -> tuple[np.ndarray, ...]:
        return (
            self.T.evaluate(nodes, K),
            self.N.evaluate(nodes, K),
            self.Phi.evaluate(nodes, K),
        )


@dataclass(frozen=True)
class MeshSpec:
    """Either a structured rectangle (nx, ny, lx, ly) or an external mesh file."""

    nx: int = 0
    ny: int = 0
    lx: float = 1.0
    ly: float = 1.0
    path: str = ""

    def build(self) -> Triangulation:
        if self.path:
            return read_mesh(self.path)
        return build_structured_mesh(self.nx, self.ny, self.lx, self.ly)


@dataclass(frozen=True)
class SolverOptions:
    tol: float = 1e-10
    maxit: int = 0  # 0 means 10 * n
    jacobi: bool = False

    def __post_init__(self):
        if not (math.isfinite(self.tol) and self.tol > 0.0):
            raise ValueError("solver tol must be finite and positive")
        if self.maxit < 0:
            raise ValueError("solver maxit must be nonnegative (0 means 10 * n)")

    def maxit_for(self, n: int) -> int:
        return self.maxit if self.maxit > 0 else 10 * n


@dataclass(frozen=True)
class OutputOptions:
    directory: str = ""
    csv_name: str = "per_step.csv"
    summary_name: str = "summary.txt"
    snapshot_every: int = 0  # 0 disables VTK snapshots
    vtk_prefix: str = "snapshot"


@dataclass(frozen=True)
class RunConfig:
    mesh: MeshSpec
    params: ModelParams
    dt: float
    tf: float
    variant: SchemeVariant
    initial: InitialConditions
    solver: SolverOptions = SolverOptions()
    output: OutputOptions = OutputOptions()
    debug_checks: bool = False
    label: str = "run"

    def __post_init__(self):
        if self.dt <= 0.0:
            raise ValueError("dt must be positive")
        # tf == 0 is a degenerate run that records only initial diagnostics
        if self.tf != 0.0 and self.tf < self.dt:
            raise ValueError("tf must be zero or at least dt")
        steps = self.tf / self.dt
        if abs(steps - round(steps)) > 1e-9 * max(1.0, steps):
            raise ValueError(f"tf/dt = {steps} is not an integer step count")

    @property
    def n_steps(self) -> int:
        return int(round(self.tf / self.dt))


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


def _check_finite(state: State) -> None:
    for name, v in (("T", state.T), ("N", state.N), ("Phi", state.Phi)):
        if not np.all(np.isfinite(v)):
            raise SchemeError(state.step, f"non-finite values in {name}")


def _assert_m_matrix(B: sp.csr_matrix, step: int) -> None:
    # Debug-mode structural check on the tumor system matrix.
    diff = B - B.T
    if diff.nnz and np.abs(diff.data).max() > 1e-12 * np.abs(B.data).max():
        raise SchemeError(step, "system matrix lost symmetry")
    diag = B.diagonal()
    if np.any(diag <= 0.0):
        raise SchemeError(step, "system matrix has a nonpositive diagonal entry")
    off = B - sp.diags(diag)
    if off.nnz and off.data.max() > 1e-12 * np.abs(B.data).max():
        raise SchemeError(step, "system matrix has a positive off-diagonal entry")
    row_off = np.abs(off) @ np.ones(B.shape[0])
    if np.any(diag + 1e-12 * np.abs(B.data).max() < row_off):
        raise SchemeError(step, "system matrix is not row diagonally dominant")


def _solve_spd(B, rhs, x0, solver: SolverOptions, step: int):
    try:
        return cg_solve(
            B, rhs, tol=solver.tol, maxit=solver.maxit_for(len(rhs)), x0=x0,
            jacobi=solver.jacobi,
        )
    except CgError as exc:
        raise SchemeError(step, str(exc)) from exc


def step(
    state: State,
    ctx: FemContext,
    p: ModelParams,
    dt: float,
    solver: SolverOptions = SolverOptions(),
    debug_checks: bool = False,
    *,
    lumped: bool,
    split: bool,
) -> tuple[State, StepDiagnostics]:
    """One step with lumped (else consistent) mass and split (else explicit) reactions.

    Explicit reactions are the unsplit ones at the old state, entering as
    consistent-mass loads; consistent mass with them is no scheme and
    raises ``ValueError``. The consistent-mass tumor system has positive
    off-diagonals and a mild asymmetry, so it is solved by CG on its normal
    equations and the residual reported is that of the original system.
    Its nodal updates equal the lumped ones: the mass matrix acts on both
    sides of their nodewise-defined interpolants and cancels.

    The lumped tumor system is the freshly assembled stiffness matrix with
    the lumped terms added in place at its diagonal slots, rounded as
    ``(A_aa + m_a / dt) + m_a * decay_a``; it therefore has the stiffness
    pattern and equals ``diags(m / dt) + A + diags(m * decay)`` bit for bit.
    """
    if not (lumped or split):
        raise ValueError("no scheme combines consistent mass with explicit reactions")
    k = state.step + 1
    T, N, Phi = state.T, state.N, state.Phi
    m, M = ctx.lumped, ctx.mass
    A = ctx.stiffness_template.assemble(element_diffusivity(ctx, T, Phi, p))
    diag = ctx.stiffness_template.diagonal_slots
    if split:
        source, decay = model.imex_coefficients_T(T, N, Phi, p)
        if lumped:
            A.data[diag] = (A.data[diag] + m / dt) + m * decay
            B = A
            rhs = m * (T / dt + source)
        else:
            B = (M.multiply(1.0 / dt) + A + (M @ sp.diags(decay))).tocsr()
            rhs = M @ (T / dt + source)
    else:
        f1, f2, f3 = model.reactions(T, N, Phi, p)
        A.data[diag] = A.data[diag] + m / dt
        B = A
        rhs = m * (T / dt) + M @ f1

    if lumped:
        if debug_checks:
            _assert_m_matrix(B, k)
        res = _solve_spd(B, rhs, T, solver, k)
        residual = res.residual
    else:
        Bt = B.T.tocsr()
        res = _solve_spd((Bt @ B).tocsr(), Bt @ rhs, T, solver, k)
        rhs_norm = float(np.linalg.norm(rhs))
        residual = float(np.linalg.norm(rhs - B @ res.x)) / rhs_norm if rhs_norm else 0.0

    if split:
        phi_new = model.update_phi_node(T, res.x, N, Phi, dt, p)
        n_new = model.update_n_node(T, res.x, N, Phi, phi_new, dt, p)
    else:
        phi_new = Phi + dt * (M @ f3) / m
        n_new = N + dt * (M @ f2) / m
    new = State(T=res.x, N=n_new, Phi=phi_new, step=k, time=state.time + dt)
    _check_finite(new)
    return new, _field_diag(new, res.iterations, residual)


# run() looks its stepper up here on every call, so a caller may swap an entry
# (to time or count steps) without touching the scheme.
_STEPPERS = {
    SchemeVariant.IMEX_LUMPED: functools.partial(step, lumped=True, split=True),
    SchemeVariant.EXPLICIT_LUMPED: functools.partial(step, lumped=True, split=False),
    SchemeVariant.IMEX_CONSISTENT: functools.partial(step, lumped=False, split=True),
}


def initial_state(config: RunConfig, mesh: Triangulation) -> State:
    T0, N0, Phi0 = config.initial.interpolate(mesh.nodes, config.params.K)
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
    if config.variant in (SchemeVariant.IMEX_LUMPED, SchemeVariant.EXPLICIT_LUMPED):
        if not report_angles.non_obtuse:
            raise ValueError(
                "mesh fails the non-obtuse audit required by the "
                f"{config.variant.value} scheme: element {report_angles.worst_element} "
                f"has an angle with cosine {-report_angles.max_neg_cosine:.6f}"
            )
    ctx = build_context(mesh)
    state = initial_state(config, mesh)
    state.check_lengths(mesh.n_vertices)
    if on_step is not None:
        on_step(mesh, state)

    stepper = _STEPPERS[config.variant]
    diags = [_field_diag(state, 0, 0.0)]
    energy = 0.0
    for _ in range(config.n_steps):
        state, d = stepper(
            state, ctx, config.params, config.dt,
            solver=config.solver, debug_checks=config.debug_checks,
        )
        _, l2, h1 = norms(ctx, state.T)
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
