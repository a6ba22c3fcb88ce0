"""The fixed-pattern per-step kernels against the direct sparse arithmetic.

The stiffness scatter operator, the vertex-sum diffusivity and the
tumor systems written in place must reproduce, bit for bit, a scatter-add
over the elements, the fancy-index vertex means, the sparse sum of
diagonals with the stiffness matrix (lumped) and the sparse sum of scaled
mass, stiffness and mass times decay (consistent). The oracles below are
kept here in that direct form, with a scatter-add for the consistent mass
and a key search for the map from the stiffness slots into the mass
pattern. A step evaluates the vascular factors once for all split reactions
and shares the template's pattern with every matrix it assembles; the
tests at the end pin both against the independent evaluation, pin
``csr_product`` to ``@`` bit for bit on every matrix a context holds, and
count the sparse constructors a step calls.
"""

from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse._compressed

from tumorfem import scheme
from tumorfem.cli import build_preset
from tumorfem.config import SchemeVariant, SolverOptions
from tumorfem.fem import build_context
from tumorfem.linalg import csr_product
from tumorfem.mesh import (
    audit_angles,
    build_structured_mesh,
    element_areas_and_gradients,
    triangulation_from_arrays,
)
from tumorfem.model import (
    ModelParams,
    State,
    imex_coefficients_T,
    update_n_node,
    update_phi_node,
    vascular_factors,
    vascular_fraction,
)
from tumorfem.scheme import element_diffusivity, run, step

from oracles import unit_stiffness

PARAMS = ModelParams(
    kappa1=8e-5, kappa0=8e-5, rho=1.0, alpha=0.8, beta1=0.8, beta2=0.8,
    gamma=0.008, delta=0.8, K=1.0,
)
# Diffusion, time and decay terms of one size, so that a different rounding
# of the diagonal sum shows in the last bits.
COMPARABLE_TERMS = replace(PARAMS, kappa1=0.05, kappa0=0.05)


def right_angled_mesh(dx, dy, flip):
    """Cell widths dx, heights dy and, per cell (row j, column i), flip[j][i]
    choosing its diagonal: every triangle is right-angled."""
    nx, ny = len(dx), len(dy)
    xs = np.concatenate(([0.0], np.cumsum(dx)))
    ys = np.concatenate(([0.0], np.cumsum(dy)))
    X, Y = np.meshgrid(xs, ys, indexing="xy")
    nodes = np.column_stack([X.ravel(), Y.ravel()])
    triangles = []
    for j in range(ny):
        for i in range(nx):
            v00 = j * (nx + 1) + i
            v10, v01, v11 = v00 + 1, v00 + nx + 1, v00 + nx + 2
            if flip[j][i]:
                triangles += [(v00, v10, v11), (v00, v11, v01)]
            else:
                triangles += [(v00, v10, v01), (v10, v11, v01)]
    return triangulation_from_arrays(nodes, triangles)


def graded_mesh(nx, ny, seed, halvings=0):
    """Random x/y spacing and a random diagonal per cell. Each of ``halvings``
    halves every cell, each sub-cell keeping its parent's diagonal, so the
    meshes of one seed are nested."""
    rng = np.random.default_rng(seed)
    dx = rng.uniform(0.2, 1.0, nx)
    dy = rng.uniform(0.2, 1.0, ny)
    flip = rng.random((ny, nx)) < 0.5
    r = 2 ** halvings
    return right_angled_mesh(np.repeat(dx / r, r), np.repeat(dy / r, r),
                             np.repeat(np.repeat(flip, r, axis=0), r, axis=1))


def acute_mesh(nx, ny):
    """Triangular lattice with alternating row offsets; every angle is near 60 degrees."""
    nodes = [
        ((i + 0.5 * (j % 2)) * 1.0, j * 0.9)
        for j in range(ny + 1)
        for i in range(nx + 1)
    ]
    triangles = []
    for j in range(ny):
        for i in range(nx):
            a, b = j * (nx + 1) + i, j * (nx + 1) + i + 1
            c, d = a + nx + 1, b + nx + 1
            if j % 2 == 0:
                triangles += [(a, b, c), (b, d, c)]
            else:
                triangles += [(a, b, d), (a, d, c)]
    return triangulation_from_arrays(nodes, triangles)


def jittered_mesh(nx, ny, seed):
    """Structured mesh with every interior node moved by up to a fifth of a
    cell, so that some angles are obtuse."""
    mesh = build_structured_mesh(nx, ny, 1.0, 1.0)
    nodes = mesh.nodes.copy()
    interior = (nodes > 0.0).all(axis=1) & (nodes < 1.0).all(axis=1)
    rng = np.random.default_rng(seed)
    nodes[interior] += rng.uniform(-0.2, 0.2, (int(interior.sum()), 2)) / max(nx, ny)
    return triangulation_from_arrays(nodes, mesh.triangles)


def mixed_orientation(mesh):
    """The same mesh rebuilt with every other element's last two vertices swapped."""
    triangles = mesh.triangles.copy()
    triangles[1::2] = triangles[1::2][:, [0, 2, 1]]
    return triangulation_from_arrays(mesh.nodes, triangles)


MESHES = {
    "structured": lambda: build_structured_mesh(7, 5, 1.3, 0.9),
    "graded": lambda: graded_mesh(6, 8, seed=5),
}


def add_at_stiffness(mesh, coeff):
    """Scatter-add of the 9 local entries of every element into the full pattern.

    Also returns a mask of the slots whose geometric factors are all zero.
    """
    areas, grads = element_areas_and_gradients(mesh)
    nt, n = mesh.n_triangles, mesh.n_vertices
    rows, cols, geom = [], [], []
    for a in range(3):
        for b in range(3):
            rows.append(mesh.triangles[:, a])
            cols.append(mesh.triangles[:, b])
            geom.append(areas * np.einsum("ij,ij->i", grads[:, a], grads[:, b]))
    rows, cols, geom = np.concatenate(rows), np.concatenate(cols), np.concatenate(geom)
    pattern = sp.csr_matrix((np.ones(9 * nt), (rows, cols)), shape=(n, n))
    pattern.sum_duplicates()
    pattern.sort_indices()
    order = np.lexsort((cols, rows))
    slot_of_sorted = np.cumsum(
        np.r_[0, (np.diff(rows[order]) != 0) | (np.diff(cols[order]) != 0)]
    )
    slots = np.empty(9 * nt, dtype=np.int64)
    slots[order] = slot_of_sorted
    data = np.zeros(len(pattern.indices))
    np.add.at(data, slots, np.tile(coeff, 9) * geom)
    nonzero_factor = np.zeros(len(pattern.indices), dtype=bool)
    np.logical_or.at(nonzero_factor, slots, geom != 0.0)
    A = sp.csr_matrix((data, pattern.indices, pattern.indptr), shape=(n, n))
    return A, ~nonzero_factor


def add_at_mass(mesh):
    """Scatter-add of the 9 local mass entries (area/12) * (2 or 1) of every
    element, in entry order, into the pattern of all element vertex pairs."""
    areas, _ = element_areas_and_gradients(mesh)
    n = mesh.n_vertices
    rows, cols, vals = [], [], []
    for a in range(3):
        for b in range(3):
            rows.append(mesh.triangles[:, a])
            cols.append(mesh.triangles[:, b])
            vals.append(areas * ((2.0 if a == b else 1.0) / 12.0))
    keys = np.concatenate(rows) * n + np.concatenate(cols)
    slot_keys, slots = np.unique(keys, return_inverse=True)
    data = np.zeros(len(slot_keys))
    np.add.at(data, slots, np.concatenate(vals))
    slot_rows, slot_cols = np.divmod(slot_keys, n)
    indptr = np.r_[0, np.cumsum(np.bincount(slot_rows, minlength=n))]
    return sp.csr_matrix((data, slot_cols, indptr), shape=(n, n))


def searchsorted_mass_slots(ctx):
    """Position in ``mass.data`` of every stiffness slot, by searching the
    row-major keys of the stiffness pattern among those of the mass pattern."""
    M, A = ctx.mass, unit_stiffness(ctx)
    rows = np.arange(ctx.mesh.n_vertices, dtype=np.int64)
    mass_keys = np.repeat(rows, np.diff(M.indptr)) * len(rows) + M.indices
    stiffness_keys = np.repeat(rows, np.diff(A.indptr)) * len(rows) + A.indices
    return np.searchsorted(mass_keys, stiffness_keys)


def n_edges(mesh):
    t = mesh.triangles
    pairs = np.sort(np.concatenate([t[:, [0, 1]], t[:, [1, 2]], t[:, [2, 0]]]), axis=1)
    return len(np.unique(pairs, axis=0))


def random_state(mesh, seed):
    rng = np.random.default_rng(seed)
    n = mesh.n_vertices
    T, N, Phi = (rng.uniform(0.0, PARAMS.K, n) for _ in range(3))
    return State(T=T, N=N, Phi=Phi, step=0, time=0.0)


# Generic geometric factors: no right angle, so no factor is exactly zero.
JITTERED = {"jittered-mixed": lambda: mixed_orientation(jittered_mesh(8, 8, seed=1))}


@pytest.mark.parametrize("name", [*MESHES, *JITTERED])
def test_scatter_operator_matches_add_at(name):
    mesh = {**MESHES, **JITTERED}[name]()
    coeff = np.random.default_rng(3).uniform(0.0, 2.0, mesh.n_triangles)
    coeff[::7] = 0.0
    A = build_context(mesh).assemble(coeff)
    ref, zero_slots = add_at_stiffness(mesh, coeff)
    assert np.array_equal(A.toarray(), ref.toarray())
    # The right-angled meshes have hypotenuse slots whose factors are all zero.
    assert zero_slots.any() == (name in MESHES)
    kept = sp.csr_matrix((~zero_slots * 1.0, ref.indices, ref.indptr), shape=ref.shape)
    kept.eliminate_zeros()
    assert np.array_equal(A.indptr, kept.indptr)
    assert np.array_equal(A.indices, kept.indices)
    assert A.has_canonical_format


ALL_MESHES = {**MESHES, "acute": lambda: acute_mesh(5, 4)}
MASS_MESHES = {**ALL_MESHES, **JITTERED}


@pytest.mark.parametrize("make_mesh", MASS_MESHES.values(), ids=MASS_MESHES.keys())
def test_consistent_mass_matches_add_at(make_mesh):
    mesh = make_mesh()
    M, ref = build_context(mesh).mass, add_at_mass(mesh)
    assert np.array_equal(M.indptr, ref.indptr)
    assert np.array_equal(M.indices, ref.indices)
    assert np.array_equal(M.data, ref.data)
    assert M.has_canonical_format


@pytest.mark.parametrize("make_mesh", MASS_MESHES.values(), ids=MASS_MESHES.keys())
def test_mass_slots_match_searchsorted_map(make_mesh):
    ctx = build_context(make_mesh())
    slots = ctx.mass_slots
    assert np.array_equal(slots, searchsorted_mass_slots(ctx))
    assert np.array_equal(ctx.mass.indices[slots], unit_stiffness(ctx).indices)


@pytest.mark.parametrize("variant", [SchemeVariant.IMEX_LUMPED, SchemeVariant.EXPLICIT_LUMPED],
                         ids=["split", "explicit"])
@pytest.mark.parametrize("make_mesh", MESHES.values(), ids=MESHES.keys())
def test_lumped_system_matches_sparse_sum(make_mesh, variant, monkeypatch):
    mesh = make_mesh()
    ctx = build_context(mesh)
    state = random_state(mesh, seed=11)
    dt = 0.1
    systems = []
    solve = scheme.cg_solve

    def capture(B, b, **kwargs):
        systems.append(B.copy())
        return solve(B, b, **kwargs)

    monkeypatch.setattr(scheme, "cg_solve", capture)
    p = COMPARABLE_TERMS
    step(state, ctx, p, dt, SolverOptions(tol=1e-12), variant=variant)
    (B,) = systems
    # The stiffness pattern sits inside the mass pattern at the mass slots.
    rows = np.repeat(np.arange(mesh.n_vertices), np.diff(B.indptr))
    mass_rows = np.repeat(np.arange(mesh.n_vertices), np.diff(ctx.mass.indptr))
    assert np.array_equal(mass_rows[ctx.mass_slots], rows)
    assert np.array_equal(ctx.mass.indices[ctx.mass_slots], B.indices)

    m = ctx.lumped
    A, _ = add_at_stiffness(mesh, element_diffusivity(ctx, state.T, state.Phi, p))
    if variant.split:
        P, root = vascular_factors(state.Phi, state.T, p.K)
        _, decay = imex_coefficients_T(state.T, state.N, state.Phi, P, root, p)
        expected = (sp.diags(m / dt) + A + sp.diags(m * decay)).tocsr()
    else:
        expected = (sp.diags(m / dt) + A).tocsr()
    assert np.array_equal(B.indptr, expected.indptr)
    assert np.array_equal(B.indices, expected.indices)
    assert np.array_equal(B.data, expected.data)


@pytest.mark.parametrize("make_mesh", ALL_MESHES.values(), ids=ALL_MESHES.keys())
def test_consistent_system_matches_sparse_sum(make_mesh, monkeypatch):
    mesh = make_mesh()
    ctx = build_context(mesh)
    state = random_state(mesh, seed=13)
    dt = 0.1
    systems = []
    solve = scheme.bicgstab_solve

    def capture(B, b, **kwargs):
        systems.append(B.copy())
        return solve(B, b, **kwargs)

    monkeypatch.setattr(scheme, "bicgstab_solve", capture)
    p = COMPARABLE_TERMS
    step(state, ctx, p, dt, SolverOptions(tol=1e-12), variant=SchemeVariant.IMEX_CONSISTENT)
    (B,) = systems

    M = ctx.mass
    A = ctx.assemble(element_diffusivity(ctx, state.T, state.Phi, p))
    P, root = vascular_factors(state.Phi, state.T, p.K)
    _, decay = imex_coefficients_T(state.T, state.N, state.Phi, P, root, p)
    expected = (M.multiply(1.0 / dt) + A + M @ sp.diags(decay)).tocsr()
    expected.sort_indices()
    assert np.array_equal(B.indptr, expected.indptr)
    assert np.array_equal(B.indices, expected.indices)
    assert np.array_equal(B.data, expected.data)


def test_lumping_comparison_consistent_run_iteration_budget():
    # CG on the normal equations took 4,679 iterations here; BiCGSTAB on the
    # system itself takes 1,245.
    _, consistent = build_preset("lumping-comparison")
    assert consistent.variant is scheme.SchemeVariant.IMEX_CONSISTENT
    report = run(consistent)
    assert sum(d.cg_iters for d in report.steps) <= 1_600
    assert min(d.min_t for d in report.steps) < 0.0


@pytest.mark.parametrize("make_mesh", MESHES.values(), ids=MESHES.keys())
def test_vertex_sum_diffusivity_matches_fancy_index_mean(make_mesh):
    mesh = make_mesh()
    ctx = build_context(mesh)
    state = random_state(mesh, seed=2)
    tris = mesh.triangles
    expected = (
        PARAMS.kappa1
        * vascular_fraction(state.Phi[tris].mean(axis=1), state.T[tris].mean(axis=1), PARAMS.K)
        + PARAMS.kappa0
    )
    assert np.array_equal(element_diffusivity(ctx, state.T, state.Phi, PARAMS), expected)


@pytest.mark.parametrize("nx, ny, nnz", [(3, 4, 82), (40, 40, 8_241)])
def test_structured_nnz_drops_hypotenuse_slots(nx, ny, nnz):
    mesh = build_structured_mesh(nx, ny, 1.0, 1.0)
    template = build_context(mesh)
    A = template.assemble(np.ones(mesh.n_triangles))
    assert A.nnz == nnz == mesh.n_vertices + 2 * (n_edges(mesh) - nx * ny)
    assert len(template.diagonal_slots) == mesh.n_vertices


def test_graded_nnz_drops_one_edge_per_cell():
    nx, ny = 6, 8
    mesh = graded_mesh(nx, ny, seed=5)
    A = build_context(mesh).assemble(np.ones(mesh.n_triangles))
    assert A.nnz == mesh.n_vertices + 2 * (n_edges(mesh) - nx * ny)


def test_acute_mesh_keeps_every_slot():
    mesh = acute_mesh(5, 4)
    assert audit_angles(mesh).strictly_acute
    template = build_context(mesh)
    A = template.assemble(np.ones(mesh.n_triangles))
    assert A.nnz == mesh.n_vertices + 2 * n_edges(mesh)
    assert np.all(A.data != 0.0)
    rows = np.repeat(np.arange(mesh.n_vertices), np.diff(A.indptr))
    assert np.array_equal(A.indices[template.diagonal_slots], np.arange(mesh.n_vertices))
    assert np.array_equal(rows[template.diagonal_slots], np.arange(mesh.n_vertices))


@pytest.mark.parametrize("variant", [SchemeVariant.IMEX_LUMPED, SchemeVariant.IMEX_CONSISTENT],
                         ids=["lumped", "consistent"])
@pytest.mark.parametrize("make_mesh", MESHES.values(), ids=MESHES.keys())
def test_split_step_nodal_updates_equal_independent_node_updates(make_mesh, variant):
    mesh = make_mesh()
    ctx = build_context(mesh)
    state = random_state(mesh, seed=17)
    dt = 0.05
    new, _ = step(state, ctx, PARAMS, dt, SolverOptions(tol=1e-12), variant=variant)
    # Node by node, each update evaluating its own vascular factors.
    for a in range(mesh.n_vertices):
        tk, nk, phik, tk1 = state.T[a], state.N[a], state.Phi[a], new.T[a]
        _, root = vascular_factors(phik, tk, PARAMS.K)
        phi = update_phi_node(tk, tk1, nk, phik, root, dt, PARAMS)
        n = update_n_node(tk1, nk, phi, root, dt, PARAMS)
        assert new.Phi[a] == phi
        assert new.N[a] == n


def test_assembled_matrices_share_the_read_only_pattern():
    ctx = build_context(graded_mesh(6, 8, seed=5))
    coeff = np.random.default_rng(8).uniform(0.0, 2.0, ctx.mesh.n_triangles)
    A, A2 = ctx.assemble(coeff), ctx.assemble(coeff)
    assert not A.indices.flags.writeable
    assert not A.indptr.flags.writeable
    assert np.shares_memory(A.indices, A2.indices)
    assert np.shares_memory(A.indptr, A2.indptr)
    # The template the matrices are copied from holds no value per entry.
    assert ctx._template.data.strides == (0,)
    assert A.indices is ctx._template.indices
    # Only the values are fresh, and they are the caller's to change.
    assert A.data.flags.writeable
    assert not np.shares_memory(A.data, A2.data)
    A.data[0] = -1.0
    assert A2.data[0] != -1.0
    A.data[:] = 0.0
    with pytest.raises(ValueError):
        A.eliminate_zeros()
    assert np.array_equal(ctx.assemble(coeff).toarray(), A2.toarray())


@pytest.mark.parametrize("variant", list(SchemeVariant), ids=lambda v: v.value)
def test_steps_leave_template_and_unit_stiffness_unchanged(variant):
    mesh = graded_mesh(6, 8, seed=5)
    ctx = build_context(mesh)

    def fixed_arrays():
        P, S, E = ctx._template, ctx._scatter, ctx.energy
        return (P.data, P.indices, P.indptr, ctx.diagonal_slots, S.data, S.indices, S.indptr,
                E.data, E.indices, E.indptr, ctx.mass.data, ctx.mass.indices, ctx.mass.indptr,
                ctx.lumped, ctx.mass_slots)

    before = [a.copy() for a in fixed_arrays()]
    state = random_state(mesh, seed=4)
    for _ in range(10):
        state, _ = step(state, ctx, COMPARABLE_TERMS, 0.05, SolverOptions(tol=1e-12),
                        variant=variant)
    for old, new in zip(before, fixed_arrays(), strict=True):
        assert np.array_equal(old, new)


def product_inputs(n, rng):
    """A finite vector with signed zeros and subnormals, and one with infinities and NaN too."""
    finite = rng.standard_normal(n)
    finite[rng.choice(n, 4, replace=False)] = [0.0, -0.0, 5e-324, -2.5e-310]
    special = finite.copy()
    special[rng.choice(n, 3, replace=False)] = [np.inf, -np.inf, np.nan]
    return finite, special


@pytest.mark.parametrize("make_mesh", MASS_MESHES.values(), ids=MASS_MESHES.keys())
def test_csr_product_equals_matmul_bit_for_bit(make_mesh):
    mesh = make_mesh()
    ctx = build_context(mesh)
    rng = np.random.default_rng(12)
    B = ctx.assemble(rng.uniform(0.0, 2.0, mesh.n_triangles))
    B.data[ctx.diagonal_slots] += ctx.lumped / 0.05
    system = B.copy()
    np.minimum(B.data, 0.0, out=B.data)  # the sweep's off-diagonal part
    matrices = {"mass": ctx.mass, "energy": ctx.energy, "vertex_sum": ctx.vertex_sum,
                "scatter": ctx._scatter, "system": system, "min(system, 0)": B}
    for name, A in matrices.items():
        for x in (*product_inputs(A.shape[1], rng), np.full(A.shape[1], -0.0)):
            got, want = csr_product(A, x), A @ x
            assert got.dtype == want.dtype and got.shape == want.shape, name
            assert np.array_equal(got.view(np.int64), want.view(np.int64)), name
        with pytest.raises(ValueError, match="dimension mismatch"):
            csr_product(A, np.ones(A.shape[1] + 1))


@pytest.mark.parametrize("variant, constructed", [
    (SchemeVariant.IMEX_LUMPED, 0),
    (SchemeVariant.EXPLICIT_LUMPED, 0),
    (SchemeVariant.IMEX_CONSISTENT, 3),  # its system on the mass pattern, one per step
], ids=lambda v: getattr(v, "value", None))
def test_lumped_steps_construct_no_sparse_matrix(variant, constructed, monkeypatch):
    mesh = graded_mesh(6, 8, seed=5)
    ctx = build_context(mesh)
    calls = []
    init = scipy.sparse._compressed._cs_matrix.__init__

    def counting_init(self, *args, **kwargs):
        calls.append(type(self).__name__)
        init(self, *args, **kwargs)

    monkeypatch.setattr(scipy.sparse._compressed._cs_matrix, "__init__", counting_init)
    state = random_state(mesh, seed=4)
    for _ in range(3):
        state, _ = step(state, ctx, COMPARABLE_TERMS, 0.05, SolverOptions(tol=1e-12),
                        variant=variant)
    assert len(calls) == constructed
