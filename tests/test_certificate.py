"""The per-step M-matrix certificate of the lumped tumor systems.

The certificate reads the stored entries at the known diagonal slots and
takes one product for the row sums. It is compared below with the sparse-
arithmetic check it replaced, which is kept here as the oracle, on systems
with one entry perturbed. Symmetry is no longer checked per step, because assembly makes
it exact; a test checks that instead.
"""

from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from tumorfem import scheme
from tumorfem.cli import TABLE_BOUNDS
from tumorfem.config import SchemeVariant, SolverOptions
from tumorfem.fem import FemContext
from tumorfem.mesh import audit_angles, build_structured_mesh, triangulation_from_arrays
from tumorfem.model import ModelParams, State
from tumorfem.scheme import SchemeError, step

from oracles import gronwall_constants, unit_stiffness
from test_assembly_equivalence import acute_mesh, graded_mesh, random_state, right_angled_mesh


def oracle_m_matrix(B, step):
    """The sparse-arithmetic check the certificate replaced."""
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


def rotated_mesh(nx, angle):
    mesh = build_structured_mesh(nx, nx, 1.0, 1.0)
    c, s = np.cos(angle), np.sin(angle)
    return triangulation_from_arrays(mesh.nodes @ np.array([[c, s], [-s, c]]), mesh.triangles)


MESHES = {
    "structured": lambda: build_structured_mesh(7, 5, 1.3, 0.9),
    "graded": lambda: graded_mesh(6, 8, seed=5),
    "rotated": lambda: rotated_mesh(12, 0.7),
}


def lumped_system(ctx, seed, dt=0.05):
    rng = np.random.default_rng(seed)
    B = ctx.assemble(rng.uniform(0.0, 2.0, ctx.mesh.n_triangles))
    B.data[ctx.diagonal_slots] += ctx.lumped / dt
    return B


def verdict(check, B):
    try:
        check(B)
    except SchemeError as exc:
        return str(exc)
    return None


def perturb(B, kind, row):
    """Copy of B with one entry of ``row`` (a symmetric pair, off the diagonal) changed.

    Returns the copy and the row the certificate must name.
    """
    B = B.copy()
    start, end = B.indptr[row], B.indptr[row + 1]
    cols = B.indices[start:end]
    d = start + int(np.flatnonzero(cols == row)[0])
    if kind == "zero-diagonal":
        B.data[d] = 0.0
    elif kind == "non-dominant-row":
        B.data[d] = 0.5 * (np.abs(B.data[start:end]).sum() - B.data[d])
    elif kind == "positive-off-diagonal":
        col = int(cols[np.argmin(np.where(cols == row, np.inf, B.data[start:end]))])
        B[row, col] = B[col, row] = -B[row, col]
        row = min(row, col)
    return B, row


PERTURBATIONS = {
    "zero-diagonal": "nonpositive diagonal entry",
    "positive-off-diagonal": "positive off-diagonal entry",
    "non-dominant-row": "not row diagonally dominant",
}


@pytest.mark.parametrize("kind", PERTURBATIONS)
@pytest.mark.parametrize("make_mesh", MESHES.values(), ids=MESHES.keys())
def test_certificate_agrees_with_sparse_oracle(make_mesh, kind):
    ctx = FemContext(make_mesh())
    slots = ctx.diagonal_slots
    B = lumped_system(ctx, seed=4)
    assert verdict(lambda M: scheme._certify_m_matrix(M, slots, 3), B) is None
    assert verdict(lambda M: oracle_m_matrix(M, 3), B) is None
    for row in (0, ctx.mesh.n_vertices // 2, ctx.mesh.n_vertices - 1):
        bad, named_row = perturb(B, kind, row)
        expected = verdict(lambda M: oracle_m_matrix(M, 3), bad)
        assert expected is not None and PERTURBATIONS[kind] in expected
        got = verdict(lambda M: scheme._certify_m_matrix(M, slots, 3), bad)
        assert got == f"{expected} in row {named_row}"


@pytest.mark.parametrize("make_mesh", MESHES.values(), ids=MESHES.keys())
def test_assembled_systems_are_bitwise_symmetric(make_mesh):
    ctx = FemContext(make_mesh())
    rng = np.random.default_rng(12)
    for _ in range(3):
        A = ctx.assemble(rng.uniform(0.0, 2.0, ctx.mesh.n_triangles))
        assert (A != A.T).nnz == 0
    B = lumped_system(ctx, seed=13)
    assert (B != B.T).nnz == 0


@pytest.mark.parametrize("angle", [0.3, 0.7, 1.1])
def test_rotated_mesh_passes_audit_and_certificate(angle):
    # Rotation leaves every right angle right, but the orthogonal couplings
    # round to tiny positive values; the certificate's slack must absorb them.
    mesh = rotated_mesh(20, angle)
    assert audit_angles(mesh).non_obtuse
    ctx = FemContext(mesh)
    off = unit_stiffness(ctx).copy()
    off.setdiag(0.0)
    assert off.data.max() > 0.0
    for variant in (SchemeVariant.IMEX_LUMPED, SchemeVariant.EXPLICIT_LUMPED):
        state = random_state(mesh, seed=1)
        for _ in range(3):
            state, _ = step(state, ctx, TABLE_BOUNDS, 1e-2, SolverOptions(tol=1e-12), variant=variant)


@st.composite
def right_angled_meshes(draw):
    nx, ny = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    spacing = st.floats(0.05, 1.0)
    dx = draw(st.lists(spacing, min_size=nx, max_size=nx))
    dy = draw(st.lists(spacing, min_size=ny, max_size=ny))
    row = st.lists(st.booleans(), min_size=nx, max_size=nx)
    return right_angled_mesh(dx, dy, draw(st.lists(row, min_size=ny, max_size=ny)))


EPS = np.finfo(float).eps


def gronwall_ceiling(n0, c1, c2, t):
    """n0 e^{c1 t} + c2 g(t), g(t) = expm1(c1 t) / c1, the solution of
    y' = c1 y + c2, y(0) = n0; +inf, without a warning, where it overflows.

    g is written t expm1(x) / x with x = c1 t, and g = t where x is 0, so a
    c1 whose product with t underflows (a subnormal c1) also gives c2 t.
    """
    x = c1 * t
    with np.errstate(over="ignore"):
        g = t * (np.expm1(x) / x) if x else t
        return (n0 * np.exp(x) if n0 else 0.0) + (c2 * g if c2 else 0.0)


def test_gronwall_ceiling_limits():
    assert gronwall_ceiling(0.5, 0.0, 3.0, 2.0) == 6.5
    assert gronwall_ceiling(0.0, 5e-324, 3.0, 0.3) == pytest.approx(0.9, rel=1e-15)
    assert gronwall_ceiling(1.0, 1.0, 1.0, 1.0) == pytest.approx(2 * np.e - 1, rel=1e-15)
    assert gronwall_ceiling(0.0, 40.0, 0.0, 1e3) == 0.0
    assert gronwall_ceiling(1.0, 40.0, 2.0, 1e3) == np.inf
    assert gronwall_ceiling(0.0, 1.0, 1e300, 1e3) == np.inf


RATE = st.floats(0.0, 2.0)
ADMISSIBLE_PARAMS = st.builds(
    ModelParams,
    kappa1=st.floats(0.0, 0.1), kappa0=st.floats(1e-4, 0.1),
    rho=RATE, alpha=RATE, beta1=RATE, beta2=RATE, gamma=RATE, delta=RATE,
    K=st.floats(0.1, 10.0),
)


@st.composite
def jittered_acute_meshes(draw):
    """``acute_mesh`` lattices with every node moved by up to 0.07 in each
    coordinate, then scaled.

    The lattice's angles are 58.1 and 61.0 degrees, and its shortest edge is
    1. Each node moves by less than 0.1, which turns an edge by less than
    asin(0.2), 11.6 degrees, so an angle changes by less than 23.1 degrees:
    every mesh drawn is strictly acute by construction.
    """
    lattice = acute_mesh(draw(st.integers(1, 8)), draw(st.integers(1, 8)))
    jitter = draw(hnp.arrays(np.float64, lattice.nodes.shape, elements=st.floats(-0.07, 0.07)))
    scale = draw(st.floats(0.05, 1.0))
    return triangulation_from_arrays(scale * (lattice.nodes + jitter), lattice.triangles)


ADMISSIBLE_RUN = dict(
    p=ADMISSIBLE_PARAMS,
    dt=st.floats(-6.0, 3.0).map(lambda e: 10.0 ** e),
    tol=st.floats(1e-12, 1e-4),
    split=st.booleans(),
    data=st.data(),
)


@given(mesh=right_angled_meshes(), **ADMISSIBLE_RUN)
def test_certificate_holds_on_random_admissible_runs(mesh, p, dt, tol, split, data):
    check_admissible_run(mesh, p, dt, tol, split, data)


@given(mesh=jittered_acute_meshes(), **ADMISSIBLE_RUN)
def test_certificate_holds_on_random_acute_runs(mesh, p, dt, tol, split, data):
    assert audit_angles(mesh).strictly_acute
    check_admissible_run(mesh, p, dt, tol, split, data)


def check_admissible_run(mesh, p, dt, tol, split, data):
    """Five steps from random data in [0, K]: the bounds hold at every step,
    and the certificate catches one off-diagonal slot of the last system
    flipped positive."""
    # The bound proof puts no limit on dt. The explicit reactions of the
    # comparison scheme grow without bound for large dt until they overflow.
    assume(split or dt <= 0.5)
    variant = SchemeVariant.IMEX_LUMPED if split else SchemeVariant.EXPLICIT_LUMPED
    ctx = FemContext(mesh)
    fields = p.K * data.draw(
        hnp.arrays(np.float64, (3, mesh.n_vertices), elements=st.floats(0.0, 1.0))
    )
    state = State(T=fields[0], N=fields[1], Phi=fields[2], step=0, time=0.0)
    certify = scheme._certify_m_matrix
    systems = []

    def recording(B, diagonal_slots, k):
        systems.append(B.copy())
        return certify(B, diagonal_slots, k)

    n0_max = float(state.N.max())
    with mock.patch.object(scheme, "_certify_m_matrix", recording):
        for k in range(1, 6):
            new, _ = step(state, ctx, p, dt, SolverOptions(tol=tol), variant=variant)
            if split:
                # Exact, at every tolerance: the monotone sweep makes T
                # nonnegative as computed, and N never decreases.
                assert new.T.min() >= 0.0
                assert np.all(new.N >= state.N)
                # The Gronwall ceiling. Its constants assume T, Phi <= K, and
                # as computed they exceed K by about 2 eps per step at most
                # (test_field_at_capacity_exceeds_k_by_rounding_only), so they
                # are taken at capacity K (1 + 4 k eps), which is checked. Each
                # step rounds N's update, seven operations on nonnegative
                # terms, by at most 8 eps relative, and the ceiling by 8 eps
                # more: hence the factor 1 + 8 (k + 1) eps.
                k_hi = p.K * (1.0 + 4 * k * EPS)
                assert max(new.T.max(), new.Phi.max()) <= k_hi
                c1, c2 = gronwall_constants(replace(p, K=k_hi))
                ceiling = gronwall_ceiling(n0_max, c1, c2, new.time)
                assert new.N.max() <= ceiling * (1.0 + 8 * (k + 1) * EPS)
            state = new
    assert len(systems) == 5

    B, slots = systems[-1], ctx.diagonal_slots
    off = np.setdiff1d(np.arange(B.nnz), slots)
    slot = off[data.draw(st.integers(0, len(off) - 1))]
    B.data[slot] = -B.data[slot]
    with pytest.raises(SchemeError, match="positive off-diagonal"):
        certify(B, slots, 5)


@pytest.mark.parametrize("mesh", [build_structured_mesh(7, 6, 1.0, 1.0), graded_mesh(6, 8, seed=5)],
                         ids=["structured", "graded"])
def test_field_at_capacity_exceeds_k_by_rounding_only(mesh):
    # With N = Phi = 0 and alpha = beta1 = 0 the tumor field only diffuses,
    # so the exact T stays in [0, K]. As computed, T >= 0 holds exactly and
    # T <= K up to rounding: each step can add a few units in the last place
    # and the diffusion damps them, so the excess builds up, then levels off.
    # Measured on these draws (20 per mesh, dt from 1e-6 to 1e3, 30 steps
    # each): T > K on 990 of 1,200 steps, by at most 2 eps per step taken and
    # 32 eps (7.1e-15 relative) in all. The bound allows 4 eps per step taken,
    # twice the measured rate.
    ctx = FemContext(mesh)
    n = mesh.n_vertices
    rng = np.random.default_rng(0)
    eps = np.finfo(float).eps
    for _ in range(20):
        rates = rng.uniform(0.0, 2.0, 4)
        p = ModelParams(kappa1=rng.uniform(0.0, 0.1), kappa0=rng.uniform(1e-4, 0.1),
                        rho=rates[0], alpha=0.0, beta1=0.0, beta2=rates[1], gamma=rates[2],
                        delta=rates[3], K=rng.uniform(0.1, 10.0))
        dt = 10.0 ** rng.uniform(-6.0, 3.0)
        T = p.K * (1.0 - 1e-16 * rng.uniform(size=n))
        state = State(T=T, N=np.zeros(n), Phi=np.zeros(n), step=0, time=0.0)
        for k in range(1, 31):
            state, _ = step(state, ctx, p, dt, SolverOptions(tol=1e-12),
                            variant=SchemeVariant.IMEX_LUMPED)
            assert state.T.min() >= 0.0
            assert state.T.max() <= p.K * (1.0 + 4 * k * eps)
