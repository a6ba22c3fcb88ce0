"""The fixed-pattern per-step kernels against the direct sparse arithmetic.

The stiffness scatter operator, the vertex-sum diffusivity and the lumped
system written in place must reproduce, bit for bit, a scatter-add over the
elements, the fancy-index vertex means and the sparse sum of diagonals
with the stiffness matrix. The oracles below are kept here in that direct
form.
"""

from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp

from tumorfem import scheme
from tumorfem.fem import StiffnessTemplate, build_context
from tumorfem.mesh import (
    audit_angles,
    build_structured_mesh,
    element_areas_and_gradients,
    triangulation_from_arrays,
)
from tumorfem.model import ModelParams, State, imex_coefficients_T, vascular_fraction
from tumorfem.scheme import SolverOptions, element_diffusivity, step

PARAMS = ModelParams(
    kappa1=8e-5, kappa0=8e-5, rho=1.0, alpha=0.8, beta1=0.8, beta2=0.8,
    gamma=0.008, delta=0.8, K=1.0,
)
# Diffusion, time and decay terms of one size, so that a different rounding
# of the diagonal sum shows in the last bits.
COMPARABLE_TERMS = replace(PARAMS, kappa1=0.05, kappa0=0.05)


def graded_mesh(nx, ny, seed):
    """Random x/y spacing and a random diagonal per cell: every triangle is right-angled."""
    rng = np.random.default_rng(seed)
    xs = np.concatenate(([0.0], np.cumsum(rng.uniform(0.2, 1.0, nx))))
    ys = np.concatenate(([0.0], np.cumsum(rng.uniform(0.2, 1.0, ny))))
    X, Y = np.meshgrid(xs, ys, indexing="xy")
    nodes = np.column_stack([X.ravel(), Y.ravel()])
    triangles = []
    for j in range(ny):
        for i in range(nx):
            v00 = j * (nx + 1) + i
            v10, v01, v11 = v00 + 1, v00 + nx + 1, v00 + nx + 2
            if rng.random() < 0.5:
                triangles += [(v00, v10, v11), (v00, v11, v01)]
            else:
                triangles += [(v00, v10, v01), (v10, v11, v01)]
    return triangulation_from_arrays(nodes, triangles)


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


def n_edges(mesh):
    t = mesh.triangles
    pairs = np.sort(np.concatenate([t[:, [0, 1]], t[:, [1, 2]], t[:, [2, 0]]]), axis=1)
    return len(np.unique(pairs, axis=0))


def random_state(mesh, seed):
    rng = np.random.default_rng(seed)
    n = mesh.n_vertices
    T, N, Phi = (rng.uniform(0.0, PARAMS.K, n) for _ in range(3))
    return State(T=T, N=N, Phi=Phi, step=0, time=0.0)


@pytest.mark.parametrize("make_mesh", MESHES.values(), ids=MESHES.keys())
def test_scatter_operator_matches_add_at(make_mesh):
    mesh = make_mesh()
    coeff = np.random.default_rng(3).uniform(0.0, 2.0, mesh.n_triangles)
    coeff[::7] = 0.0
    A = StiffnessTemplate(mesh).assemble(coeff)
    ref, zero_slots = add_at_stiffness(mesh, coeff)
    assert np.array_equal(A.toarray(), ref.toarray())
    assert zero_slots.any()
    kept = sp.csr_matrix((~zero_slots * 1.0, ref.indices, ref.indptr), shape=ref.shape)
    kept.eliminate_zeros()
    assert np.array_equal(A.indptr, kept.indptr)
    assert np.array_equal(A.indices, kept.indices)
    assert A.has_canonical_format


@pytest.mark.parametrize("split", [True, False], ids=["split", "explicit"])
@pytest.mark.parametrize("make_mesh", MESHES.values(), ids=MESHES.keys())
def test_lumped_system_matches_sparse_sum(make_mesh, split, monkeypatch):
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
    step(state, ctx, p, dt, SolverOptions(tol=1e-12), lumped=True, split=split)
    (B,) = systems

    m = ctx.lumped
    A, _ = add_at_stiffness(mesh, element_diffusivity(ctx, state.T, state.Phi, p))
    if split:
        _, decay = imex_coefficients_T(state.T, state.N, state.Phi, p)
        expected = (sp.diags(m / dt) + A + sp.diags(m * decay)).tocsr()
    else:
        expected = (sp.diags(m / dt) + A).tocsr()
    assert np.array_equal(B.indptr, expected.indptr)
    assert np.array_equal(B.indices, expected.indices)
    assert np.array_equal(B.data, expected.data)


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
    A = StiffnessTemplate(mesh).assemble(np.ones(mesh.n_triangles))
    assert A.nnz == nnz == mesh.n_vertices + 2 * (n_edges(mesh) - nx * ny)
    assert len(StiffnessTemplate(mesh).diagonal_slots) == mesh.n_vertices


def test_graded_nnz_drops_one_edge_per_cell():
    nx, ny = 6, 8
    mesh = graded_mesh(nx, ny, seed=5)
    A = StiffnessTemplate(mesh).assemble(np.ones(mesh.n_triangles))
    assert A.nnz == mesh.n_vertices + 2 * (n_edges(mesh) - nx * ny)


def test_acute_mesh_keeps_every_slot():
    mesh = acute_mesh(5, 4)
    assert audit_angles(mesh).strictly_acute
    template = StiffnessTemplate(mesh)
    A = template.assemble(np.ones(mesh.n_triangles))
    assert A.nnz == mesh.n_vertices + 2 * n_edges(mesh)
    assert np.all(A.data != 0.0)
    rows = np.repeat(np.arange(mesh.n_vertices), np.diff(A.indptr))
    assert np.array_equal(A.indices[template.diagonal_slots], np.arange(mesh.n_vertices))
    assert np.array_equal(rows[template.diagonal_slots], np.arange(mesh.n_vertices))
