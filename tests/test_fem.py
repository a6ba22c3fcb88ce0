import numpy as np
import pytest

from tumorfem.fem import build_context, norms
from tumorfem.mesh import build_structured_mesh, triangulation_from_arrays

from oracles import add_at_lumped, discrete_laplacian_apply, l2_and_h1, peak_bytes, unit_stiffness
from test_assembly_equivalence import acute_mesh, graded_mesh

MESHES = {
    "structured": lambda: build_structured_mesh(9, 7, 1.3, 0.9),
    "graded": lambda: graded_mesh(9, 7, seed=2),
    "acute": lambda: acute_mesh(8, 6),
}


def reference_triangle():
    return triangulation_from_arrays([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)], [(0, 1, 2)])


def test_lumped_mass_reference_triangle():
    m = build_context(reference_triangle()).lumped
    assert np.allclose(m, 1.0 / 6.0, rtol=1e-15)


def test_lumped_mass_interior_node_structured():
    h = 0.25
    mesh = build_structured_mesh(4, 4, 1.0, 1.0)
    m = build_context(mesh).lumped
    interior = [
        i for i, (x, y) in enumerate(mesh.nodes)
        if 0.0 < x < 1.0 and 0.0 < y < 1.0
    ]
    # six incident triangles of area h^2/2 each
    assert np.allclose(m[interior], h * h, rtol=1e-13)


def test_lumped_mass_partition_of_unity():
    for nx, ny, lx, ly in [(3, 4, 1.0, 1.0), (5, 2, 2.0, 0.7)]:
        mesh = build_structured_mesh(nx, ny, lx, ly)
        assert build_context(mesh).lumped.sum() == pytest.approx(lx * ly, rel=1e-12)


@pytest.mark.parametrize("make_mesh", MESHES.values(), ids=MESHES.keys())
def test_lumped_mass_equals_add_at(make_mesh):
    mesh = make_mesh()
    assert np.array_equal(build_context(mesh).lumped, add_at_lumped(mesh))


def test_stiffness_zero_coefficient():
    mesh = build_structured_mesh(3, 3, 1.0, 1.0)
    A = build_context(mesh).assemble(np.zeros(mesh.n_triangles))
    assert A.nnz == 0 or np.abs(A.data).max() == 0.0


def test_stiffness_reference_local_matrix():
    A = build_context(reference_triangle()).assemble([1.0]).toarray()
    expected = np.array([[1.0, -0.5, -0.5], [-0.5, 0.5, 0.0], [-0.5, 0.0, 0.5]])
    assert np.allclose(A, expected, rtol=0, atol=1e-15)


def test_stiffness_constants_in_kernel_and_row_sums():
    mesh = build_structured_mesh(6, 5, 1.3, 0.9)
    A = build_context(mesh).assemble(np.ones(mesh.n_triangles))
    ones = np.ones(mesh.n_vertices)
    scale = np.abs(A.data).max()
    assert np.abs(A @ ones).max() <= 1e-12 * scale
    assert np.abs(np.asarray(A.sum(axis=1)).ravel()).max() <= 1e-12 * scale


def test_stiffness_rejects_negative_coefficients_and_bad_length():
    mesh = build_structured_mesh(2, 2, 1.0, 1.0)
    ctx = build_context(mesh)
    coeff = np.ones(mesh.n_triangles)
    coeff[0] = -1e-12
    with pytest.raises(ValueError, match="nonnegative"):
        ctx.assemble(coeff)
    with pytest.raises(ValueError, match="shape"):
        ctx.assemble(np.ones(3))


def test_shape_errors_come_from_the_product_and_name_both_shapes():
    ctx = build_context(build_structured_mesh(2, 2, 1.0, 1.0))
    n, nt = ctx.mesh.n_vertices, ctx.mesh.n_triangles
    with pytest.raises(ValueError, match=rf"^dimension mismatch: matrix shape \({n}, {n}\), "
                                         r"vector shape \(\)$"):
        norms(ctx, 3.0)
    with pytest.raises(ValueError, match=rf"matrix shape \({n}, {n}\), vector shape \({n + 1},\)$"):
        norms(ctx, np.ones(n + 1))
    with pytest.raises(ValueError, match=rf"matrix shape \(\d+, {nt}\), vector shape \(3,\)$"):
        ctx.assemble(np.ones(3))


def test_stiffness_m_matrix_sign_pattern():
    rng = np.random.default_rng(21)
    for _ in range(5):
        nx, ny = rng.integers(2, 9, size=2)
        mesh = build_structured_mesh(int(nx), int(ny), 1.0, 1.4)
        coeff = rng.uniform(0.0, 3.0, size=mesh.n_triangles)
        A = build_context(mesh).assemble(coeff).tocoo()
        scale = max(1.0, np.abs(A.data).max())
        off = A.data[A.row != A.col]
        diag = A.data[A.row == A.col]
        assert off.max() <= 1e-12 * scale
        assert diag.min() >= -1e-12 * scale
        A = A.tocsr()
        assert np.abs((A - A.T).data).max(initial=0.0) <= 1e-12 * scale


def test_consistent_mass_reference_block():
    M = build_context(reference_triangle()).mass.toarray()
    expected = np.full((3, 3), 1.0 / 24.0)
    np.fill_diagonal(expected, 1.0 / 12.0)
    assert np.allclose(M, expected, rtol=0, atol=1e-16)


def test_consistent_row_sums_equal_lumped_and_total_area():
    for nx, ny, lx, ly in [(4, 4, 1.0, 1.0), (7, 3, 2.0, 0.5)]:
        mesh = build_structured_mesh(nx, ny, lx, ly)
        ctx = build_context(mesh)
        M, lumped = ctx.mass, ctx.lumped
        rows = np.asarray(M.sum(axis=1)).ravel()
        assert np.abs(rows - lumped).max() <= 1e-12 * lx * ly
        ones = np.ones(mesh.n_vertices)
        assert ones @ (M @ ones) == pytest.approx(lx * ly, rel=1e-12)


def test_context_build_memory_per_element_pair():
    # One sorted pass over the 9 local pairs of each element builds every
    # mesh-only operator in about 46 bytes per pair; a second COO assembly
    # for the mass takes it to 77.
    mesh = build_structured_mesh(120, 120, 1.0, 1.0)
    assert peak_bytes(build_context, mesh) / (9 * mesh.n_triangles) < 60.0


def test_discrete_laplacian_kills_constants():
    ctx = build_context(build_structured_mesh(5, 5, 1.0, 1.0))
    v = discrete_laplacian_apply(ctx.lumped, unit_stiffness(ctx), np.full(ctx.mesh.n_vertices, 3.7))
    assert np.abs(v).max() <= 1e-12


def test_discrete_laplacian_energy_identity():
    rng = np.random.default_rng(4)
    ctx = build_context(build_structured_mesh(8, 6, 1.0, 1.0))
    for _ in range(20):
        n = rng.standard_normal(ctx.mesh.n_vertices)
        lap = discrete_laplacian_apply(ctx.lumped, unit_stiffness(ctx), n)
        lhs = float(ctx.lumped @ (lap * n))
        _, h1 = l2_and_h1(ctx, n)
        assert lhs == pytest.approx(h1 * h1, rel=1e-12)


def test_discrete_laplacian_inverse_inequality_constant_bounded():
    # h * ||Laplacian_h n|| / ||n||_H1 stays bounded under refinement; the
    # constant is fitted on the coarsest structured mesh.
    rng = np.random.default_rng(17)

    def fitted(nx):
        mesh = build_structured_mesh(nx, nx, 1.0, 1.0)
        ctx = build_context(mesh)
        worst = 0.0
        for _ in range(30):
            n = rng.standard_normal(ctx.mesh.n_vertices)
            lap = discrete_laplacian_apply(ctx.lumped, unit_stiffness(ctx), n)
            lap_l2, _ = l2_and_h1(ctx, lap)
            l2, h1 = l2_and_h1(ctx, n)
            h1_full = np.hypot(l2, h1)
            worst = max(worst, mesh.h * lap_l2 / h1_full)
        return worst

    c_coarse = fitted(8)
    assert fitted(16) <= 1.25 * c_coarse
    assert fitted(32) <= 1.25 * c_coarse


def test_norms_zero_and_constant():
    ctx = build_context(build_structured_mesh(4, 4, 1.0, 1.0))
    assert l2_and_h1(ctx, np.zeros(ctx.mesh.n_vertices)) == (0.0, 0.0)
    f = np.full(ctx.mesh.n_vertices, -2.5)
    norm_h = float(np.sqrt(ctx.lumped @ (f * f)))
    l2, h1 = l2_and_h1(ctx, f)
    assert norm_h == pytest.approx(2.5, rel=1e-13)
    assert l2 == pytest.approx(2.5, rel=1e-13)
    assert h1 <= 1e-12


def test_norm_equivalence_lumped_vs_l2():
    rng = np.random.default_rng(8)
    ctx = build_context(build_structured_mesh(7, 7, 1.0, 1.0))
    for _ in range(30):
        f = rng.standard_normal(ctx.mesh.n_vertices)
        norm_h = float(np.sqrt(ctx.lumped @ (f * f)))
        l2, _ = l2_and_h1(ctx, f)
        assert l2 <= norm_h * (1.0 + 1e-12)
        assert norm_h <= 2.0 * l2 * (1.0 + 1e-12)


def test_galerkin_interpolated_linear_function():
    mesh = build_structured_mesh(6, 6, 1.0, 1.0)
    ctx = build_context(mesh)
    f = 2.0 * mesh.nodes[:, 0] - 0.5 * mesh.nodes[:, 1] + 1.0
    residual = unit_stiffness(ctx) @ f
    interior = [
        i for i, (x, y) in enumerate(mesh.nodes)
        if 0.0 < x < 1.0 and 0.0 < y < 1.0
    ]
    assert np.abs(residual[interior]).max() <= 1e-12


@pytest.mark.parametrize("make_mesh", MESHES.values(), ids=MESHES.keys())
def test_energy_form_is_squared_l2_plus_h1(make_mesh):
    # One form with M + A_1 against two forms, two roots and two squares:
    # the same exact sum rounded in another order. 2e-15 is 9 units in the
    # last place; the largest difference seen on these fields is 8.8e-16.
    ctx = build_context(make_mesh())
    rng = np.random.default_rng(6)
    for f in [*rng.uniform(0.0, 1.0, (20, ctx.mesh.n_vertices)),
              *rng.standard_normal((20, ctx.mesh.n_vertices))]:
        l2, h1 = l2_and_h1(ctx, f)
        assert norms(ctx, f) == pytest.approx(l2 * l2 + h1 * h1, rel=2e-15, abs=0.0)
    assert norms(ctx, np.zeros(ctx.mesh.n_vertices)) == 0.0
