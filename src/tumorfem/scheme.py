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
  provably stay inside [0, K] (and N never decreases). One monotone sweep
  after CG makes T >= 0 hold as computed, and a step whose fields break
  a lower bound, or that lowers N, raises ``SchemeError``.
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
writes no files; it starts each tumor solve from a quadratic
extrapolation of the last three tumor fields. Within a step all nodewise
updates are vectorized.
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
from .linalg import CgError, bicgstab_solve, cg_solve, csr_product
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
    """A step failed (no convergence, non-finite values, no M-matrix, a broken
    lower bound, a falling N); carries the step index."""

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

    @property
    def energy(self) -> float:
        """dt * sum over steps of ||T^k||_{H1}^2: the last step's ``energy_acc``."""
        return self.steps[-1].energy_acc

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
    t_avg = csr_product(ctx.vertex_sum, T)
    t_avg /= 3.0
    phi_avg = csr_product(ctx.vertex_sum, Phi)
    phi_avg /= 3.0
    kappa = model.vascular_fraction(phi_avg, t_avg, p.K)
    return np.add(np.multiply(p.kappa1, kappa, out=kappa), p.kappa0, out=kappa)


def _check_fields(d: StepDiagnostics, nonnegative: bool) -> None:
    """Raise ``SchemeError`` for a non-finite field, or a negative one if ``nonnegative``.

    Reads only the extrema in ``d``: NaN propagates through min and max and
    an infinity is one of them, so finite extrema mean finite fields.
    """
    for name, lo, hi in (
        ("T", d.min_t, d.max_t), ("N", d.min_n, d.max_n), ("Phi", d.min_phi, d.max_phi)
    ):
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise SchemeError(d.step, f"non-finite values in {name}")
        if nonnegative and lo < 0.0:
            raise SchemeError(d.step, f"{name} breaks its lower bound 0 (min {lo:.3e})")


def _certify_m_matrix(B: sp.csr_matrix, diagonal_slots: np.ndarray, step: int) -> np.ndarray:
    """Return B's diagonal, or raise ``SchemeError`` unless B is structurally an M-matrix.

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
    row_sums = csr_product(B, np.ones(len(diag)))
    if not row_sums.min() >= -tol:
        fail(f"is not row diagonally dominant in row {int(np.argmin(row_sums))}")
    return diag


def _monotone_sweep(B: sp.csr_matrix, d: np.ndarray, rhs: np.ndarray,
                    x: np.ndarray, K: float) -> tuple[np.ndarray, float]:
    """One Jacobi sweep ``y = D^-1 (rhs + N clip(x, 0, K))`` for ``B = D - N``, and its residual.

    ``d`` is the diagonal ``D`` that ``_certify_m_matrix`` proved positive, and
    ``-N`` is ``min(B, 0)``, written over ``B.data``: zero on that diagonal and
    at the positive off-diagonal entries the certificate lets pass as rounding
    (each at most 1e-12 times the largest diagonal entry), so the residual
    returned is ``||rhs - (D - N) y||_2``. For ``rhs >= 0`` every term is
    nonnegative, so ``y`` is nonnegative exactly. The exact solution is the
    sweep's fixed point, and the sweep moves no iterate farther from it in the
    max norm (Varga, Matrix Iterative Analysis, 1962, ch. 3).
    """
    np.minimum(B.data, 0.0, out=B.data)
    y = (rhs - csr_product(B, np.clip(x, 0.0, K))) / d
    residual = rhs - d * y - csr_product(B, y)
    return y, math.sqrt(float(residual @ residual))


@np.errstate(over="ignore", invalid="ignore")
def step(
    state: State,
    ctx: FemContext,
    p: ModelParams,
    dt: float,
    solver: SolverOptions = SolverOptions(),
    *,
    variant: SchemeVariant,
    guess: np.ndarray | None = None,
) -> tuple[State, StepDiagnostics]:
    """One step of ``variant``: lumped (else consistent) mass, split (else explicit) reactions.

    Explicit reactions are the unsplit ones at the old state, entering as
    consistent-mass loads and as ``decay = 0`` in the system. The split
    reactions take the vascular factors of the old state, computed once per
    step for the tumor coefficients and both nodal updates. The whole step,
    either reaction treatment, runs under the solvers' floating-point
    policy: an overflow emits no warning, and the non-finite values it
    leaves fail the solve or the field check.

    Both lumped tumor systems are the freshly assembled stiffness matrix
    with ``(A_aa + m_a / dt) + m_a * decay_a`` written in place at its
    diagonal slots; each equals ``diags(m / dt) + A + diags(m * decay)``
    bit for bit. Only its ``data`` is written: the pattern arrays belong to
    the FEM context and are read-only. It must pass the M-matrix
    certificate, which names the step and row of a violation and returns
    the diagonal it proved positive. Split steps return ``_monotone_sweep``
    of the CG solution, which divides by that diagonal.

    The consistent system has positive off-diagonals and a mild asymmetry.
    It is written in place on the mass pattern as ``(M / dt + A) + M *
    decay[column]``, the stiffness values entering at ``ctx.mass_slots``,
    equals ``M.multiply(1 / dt) + A + M @ diags(decay)`` bit for bit and is
    solved by Jacobi-scaled BiCGSTAB. Only its ``data`` is new. Its nodal
    updates equal the lumped ones: the mass matrix acts on both sides of
    their nodewise-defined interpolants and cancels.

    The solve starts from ``guess``, or from ``T^k`` when ``guess`` is
    ``None`` or not finite, so a start that overflowed cannot fail a step.
    The residual reported is that of the returned vector: the solver's own,
    at most ``solver.tol``, or the swept one's in split lumped steps. A
    solver failure, a non-finite right-hand side included, raises
    ``SchemeError`` naming the step, a non-finite value in a new field, or a
    negative one in a split lumped step, one naming the field, and a fall of
    N there, one naming its first node (exact: N only gains nonnegative terms).
    """
    lumped, split = variant.lumped, variant.split
    k = state.step + 1
    T, N, Phi = state.T, state.N, state.Phi
    m, M = ctx.lumped, ctx.mass
    A = ctx.assemble(element_diffusivity(ctx, T, Phi, p))
    if split:
        P, root = model.vascular_factors(Phi, T, p.K)
        source, decay = model.imex_coefficients_T(T, N, Phi, P, root, p)
    else:
        f1, f2, f3 = model.reactions(T, N, Phi, p)
        phi_new = Phi + dt * csr_product(M, f3) / m
        n_new = N + dt * csr_product(M, f2) / m
        decay = 0.0
    if lumped:
        diag = ctx.diagonal_slots
        A.data[diag] = (A.data[diag] + m / dt) + m * decay
        B = A
        rhs = m * (T / dt + source) if split else m * (T / dt) + csr_product(M, f1)
        D = _certify_m_matrix(B, diag, k)
    else:
        data = M.data * (1.0 / dt)
        data[ctx.mass_slots] += A.data
        data += M.data * decay[M.indices]
        B = sp.csr_matrix((data, M.indices, M.indptr), shape=M.shape)
        rhs = csr_product(M, T / dt + source)
    if guess is None or not np.isfinite(guess).all():
        guess = T
    try:
        res = (cg_solve if lumped else bicgstab_solve)(B, rhs, tol=solver.tol,
                                                       maxit=solver.maxit, x0=guess)
    except (CgError, ValueError) as exc:
        raise SchemeError(k, str(exc)) from exc
    t_new, residual = res.x, res.residual
    if split:
        if lumped:
            t_new, residual = _monotone_sweep(B, D, rhs, t_new, p.K)
            residual = residual / res.b_norm if res.b_norm else 0.0
        phi_new = model.update_phi_node(T, t_new, N, Phi, root, dt, p)
        n_new = model.update_n_node(t_new, N, phi_new, root, dt, p)
    new = State(T=t_new, N=n_new, Phi=phi_new, step=k, time=state.time + dt)
    d = _field_diag(new, res.iterations, residual)
    _check_fields(d, nonnegative=lumped and split)
    if lumped and split and (n_new < N).any():
        raise SchemeError(k, f"N decreases at node {int(np.argmax(n_new < N))}")
    return new, d


@np.errstate(over="ignore", invalid="ignore")
def _extrapolate(T: np.ndarray, previous: np.ndarray | None, buffer: np.ndarray | None,
                 diffs: list[np.ndarray]) -> np.ndarray | None:
    """The start for the solve from ``T = T^k``; ``None`` means ``T`` itself.

    ``previous`` is ``T^{k-1}`` (``None`` before the first step) and
    ``buffer`` the start of the last solve, which that solve has copied.
    ``T - previous`` is written over ``buffer`` and put in front of
    ``diffs``, which keeps ``T^k - T^{k-1}`` and then ``T^{k-1} - T^{k-2}``
    (as far as they exist). The start is ``T^k``, ``2T^k - T^{k-1}`` or
    ``3T^k - 3T^{k-1} + T^{k-2}``: the polynomial through the last one, two
    or three fields, evaluated one step ahead (Fischer, CMAME 163, 1998).
    The quadratic start is written over the older difference, which it no
    longer needs. An overflow leaves a non-finite difference or start,
    which only makes a start non-finite, and ``step`` replaces such a start
    with ``T``.
    """
    if previous is not None:
        diffs[:] = [np.subtract(T, previous, out=buffer), *diffs[:1]]
    if not diffs:
        return None
    if len(diffs) == 1:
        return T + diffs[0]
    newer, older = diffs
    np.subtract(newer, older, out=older)
    np.add(older, newer, out=older)
    return np.add(older, T, out=older)


# run() looks its stepper up here on every call, so a caller may swap an entry
# (to time or count steps) without touching the scheme.
_STEPPERS = {v: partial(step, variant=v) for v in SchemeVariant}


def initial_state(config: RunConfig, mesh: Triangulation) -> State:
    ic, K = config.initial, config.params.K
    T0, N0, Phi0 = (profile.evaluate(mesh.nodes, K) for profile in (ic.T, ic.N, ic.Phi))
    return State(T=T0, N=N0, Phi=Phi0, step=0, time=0.0)


def run(
    config: RunConfig, on_step: Callable[[Triangulation, State], None] | None = None
) -> RunReport:
    """Execute the configured number of steps and collect per-step diagnostics.

    The accumulated energy is dt * sum_k T^k . (M + A_1) T^k, the squared
    H1 norms of the computed steps. Lumped variants refuse meshes that fail
    the non-obtuse audit. The solve of step k + 1 starts from
    ``3T^k - 3T^{k-1} + T^{k-2}`` (step 2 from ``2T^1 - T^0``, step 1 from
    ``T^0``). For that the loop keeps two arrays of its own, the last two
    differences of the tumor field, and forms each start over the older one.
    ``on_step(mesh, state)``, when given, sees the initial state and the
    state after every step. No file is written here: the caller passes
    ``on_step=output.prepare_outputs(config)`` for the snapshots and calls
    ``output.write_run_outputs(report)``.
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
    diffs: list[np.ndarray] = []  # T^k - T^{k-1}, T^{k-1} - T^{k-2}; the run's own arrays
    previous = guess = None
    for _ in range(config.n_steps):
        guess = _extrapolate(state.T, previous, guess, diffs)
        previous = state.T
        state, d = stepper(state, ctx, config.params, config.dt, solver=config.solver,
                           guess=guess)
        energy += config.dt * norms(ctx, state.T)
        d.energy_acc = energy
        diags.append(d)
        if on_step is not None:
            on_step(mesh, state)

    return RunReport(config=config, mesh=mesh, steps=diags, final_state=state)
