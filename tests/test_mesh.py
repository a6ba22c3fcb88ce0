import itertools
import math

import numpy as np
import pytest

import tumorfem.mesh as mesh_module
from tumorfem.fem import FemContext
from tumorfem.mesh import (
    audit_angles,
    build_structured_mesh,
    element_areas_and_gradients,
    read_mesh,
    triangulation_from_arrays,
    write_mesh,
)

from oracles import corner_areas_and_gradients, norm_mesh_h, norm_worst_angle, peak_bytes
from test_assembly_equivalence import acute_mesh, graded_mesh, jittered_mesh


def test_single_cell_mesh():
    m = build_structured_mesh(1, 1, 1.0, 1.0)
    assert m.n_vertices == 4
    assert m.n_triangles == 2
    assert m.h == pytest.approx(math.sqrt(2.0), rel=0, abs=0)


def test_two_by_one_mesh_counts_and_areas():
    m = build_structured_mesh(2, 1, 2.0, 1.0)
    assert m.n_vertices == 6
    assert m.n_triangles == 4
    areas, _ = element_areas_and_gradients(m)
    assert np.allclose(areas, 0.5, rtol=0, atol=1e-15)


def test_paper_resolution_mesh_cell_size():
    m = build_structured_mesh(40, 40, 1.0, 1.0)
    assert m.n_vertices == 41 * 41
    xs = np.unique(m.nodes[:, 0])
    assert np.allclose(np.diff(xs), 0.025)
    assert m.h == pytest.approx(0.025 * math.sqrt(2.0))


@pytest.mark.parametrize("bad", [(0, 1, 1.0, 1.0), (1, 0, 1.0, 1.0), (1, 1, 0.0, 1.0), (1, 1, 1.0, -2.0)])
def test_structured_mesh_rejects_bad_inputs(bad):
    with pytest.raises(ValueError):
        build_structured_mesh(*bad)


@pytest.mark.parametrize("nx, ny, lx, ly", [(7, 5, 1.3, 0.9), (1, 4, 2.0, 0.5), (3, 1, 0.7, 1.9)])
def test_structured_mesh_equals_a_per_cell_loop(nx, ny, lx, ly):
    xs, ys = np.linspace(0.0, lx, nx + 1), np.linspace(0.0, ly, ny + 1)
    nodes = [(x, y) for y in ys for x in xs]
    triangles = []
    for j in range(ny):
        for i in range(nx):
            v00 = j * (nx + 1) + i
            v10, v01, v11 = v00 + 1, v00 + nx + 1, v00 + nx + 2
            triangles += [(v00, v10, v11), (v00, v11, v01)]
    mesh = build_structured_mesh(nx, ny, lx, ly)
    assert mesh.nodes.dtype == np.float64 and mesh.triangles.dtype == np.int64
    assert mesh.nodes.tobytes() == np.array(nodes).tobytes()
    assert mesh.triangles.tolist() == [list(t) for t in triangles]


def test_audit_equilateral_strictly_acute():
    nodes = [(0.0, 0.0), (1.0, 0.0), (0.5, math.sqrt(3.0) / 2.0)]
    m = triangulation_from_arrays(nodes, [(0, 1, 2)])
    rep = audit_angles(m)
    assert rep.strictly_acute
    assert rep.non_obtuse
    assert rep.max_neg_cosine == pytest.approx(-0.5, abs=1e-12)


def test_audit_right_triangle_non_obtuse_not_acute():
    m = triangulation_from_arrays([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)], [(0, 1, 2)])
    rep = audit_angles(m)
    assert rep.non_obtuse
    assert not rep.strictly_acute


def test_audit_obtuse_triangle():
    m = triangulation_from_arrays([(0.0, 0.0), (1.0, 0.0), (-1.0, 1.0)], [(0, 1, 2)])
    rep = audit_angles(m)
    assert not rep.non_obtuse
    assert rep.worst_element == 0
    # the angle at the origin has cosine -1/sqrt(2)
    assert rep.max_neg_cosine == pytest.approx(1.0 / math.sqrt(2.0))


def test_structured_meshes_always_non_obtuse():
    rng = np.random.default_rng(7)
    for _ in range(10):
        nx, ny = rng.integers(1, 13, size=2)
        lx, ly = rng.uniform(0.3, 2.5, size=2)
        rep = audit_angles(build_structured_mesh(int(nx), int(ny), lx, ly))
        assert rep.non_obtuse


def clockwise(mesh):
    """The same mesh rebuilt from its triangles in reversed (clockwise) vertex order."""
    return triangulation_from_arrays(mesh.nodes, mesh.triangles[:, ::-1])


AUDIT_MESHES = {
    "graded": lambda: graded_mesh(9, 7, seed=2),
    "graded-clockwise": lambda: clockwise(graded_mesh(9, 7, seed=2)),
    "acute": lambda: acute_mesh(8, 6),
    "jittered": lambda: jittered_mesh(8, 8, seed=1),
}
GEOMETRY_MESHES = {"structured": lambda: build_structured_mesh(7, 5, 1.3, 0.9), **AUDIT_MESHES}


@pytest.mark.parametrize("make_mesh", AUDIT_MESHES.values(), ids=AUDIT_MESHES.keys())
def test_audit_and_h_equal_the_norm_formulas(make_mesh):
    mesh = make_mesh()
    rep = audit_angles(mesh)
    worst, worst_element = norm_worst_angle(mesh)
    # float.hex tells -0.0 from 0.0, which the right angles of the graded mesh give.
    assert rep.max_neg_cosine.hex() == worst.hex()
    assert rep.worst_element == worst_element
    assert mesh.h.hex() == norm_mesh_h(mesh).hex()


TIE_MESHES = {
    "structured": GEOMETRY_MESHES["structured"],
    "graded": AUDIT_MESHES["graded"],
    "acute": AUDIT_MESHES["acute"],
}


@pytest.mark.parametrize("make_mesh", TIE_MESHES.values(), ids=TIE_MESHES.keys())
def test_audit_report_independent_of_vertex_order(make_mesh):
    # Each of these meshes has its worst angle in several elements (right
    # angles, or the lattice's repeated triangles); the report names the
    # smallest of them for all six vertex orders.
    mesh = make_mesh()
    reports = set()
    for order in itertools.permutations(range(3)):
        rep = audit_angles(triangulation_from_arrays(mesh.nodes, mesh.triangles[:, order]))
        reports.add((rep.max_neg_cosine.hex(), rep.worst_element, rep.strictly_acute, rep.non_obtuse))
    assert len(reports) == 1


@pytest.mark.parametrize("make_mesh", GEOMETRY_MESHES.values(), ids=GEOMETRY_MESHES.keys())
def test_areas_and_gradients_equal_the_corner_formulas(make_mesh):
    mesh = make_mesh()
    for got, want in zip(element_areas_and_gradients(mesh), corner_areas_and_gradients(mesh)):
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))


def test_mesh_setup_peak_memory_per_element():
    # Validation gathers the corners one coordinate at a time into one edge
    # array and takes the angle audit from it, peaking near 185 bytes per
    # element; element_areas_and_gradients forms its own, near 120, and
    # audit_angles returns the stored report. A second gather or a
    # per-quantity edge copy breaks these bounds.
    nx = 120
    nt = 2 * nx * nx
    assert peak_bytes(build_structured_mesh, nx, nx, 1.0, 1.0) / nt < 270
    mesh = build_structured_mesh(nx, nx, 1.0, 1.0)
    assert peak_bytes(audit_angles, mesh) / nt < 130
    assert peak_bytes(element_areas_and_gradients, mesh) / nt < 130


def test_each_mesh_forms_its_edge_array_once(monkeypatch, tmp_path):
    edge_arrays_formed = []
    form = mesh_module._edges

    def counted(nodes, triangles):
        edge_arrays_formed.append(1)
        return form(nodes, triangles)

    monkeypatch.setattr(mesh_module, "_edges", counted)
    mesh = build_structured_mesh(6, 4, 1.0, 1.0)
    assert len(edge_arrays_formed) == 1
    write_mesh(mesh, tmp_path / "mesh.txt")
    read_mesh(tmp_path / "mesh.txt")
    assert len(edge_arrays_formed) == 2
    # The audit is computed during validation and kept on the mesh.
    audit_angles(mesh)
    assert len(edge_arrays_formed) == 2
    assert peak_bytes(audit_angles, mesh) < 1024
    # The FEM context forms the second and last one of a run.
    FemContext(mesh)
    assert len(edge_arrays_formed) == 3


def test_element_geometry_reference_triangle():
    m = triangulation_from_arrays([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)], [(0, 1, 2)])
    areas, grads = element_areas_and_gradients(m)
    assert areas[0] == pytest.approx(0.5)
    assert np.allclose(grads[0], [(-1.0, -1.0), (1.0, 0.0), (0.0, 1.0)])


def test_element_geometry_scaled_triangle():
    m = triangulation_from_arrays([(0.0, 0.0), (2.0, 0.0), (0.0, 2.0)], [(0, 1, 2)])
    areas, grads = element_areas_and_gradients(m)
    assert areas[0] == pytest.approx(2.0)
    assert np.allclose(grads[0], [(-0.5, -0.5), (0.5, 0.0), (0.0, 0.5)])


def test_basis_gradients_sum_to_zero():
    m = build_structured_mesh(5, 4, 1.7, 0.9)
    _, grads = element_areas_and_gradients(m)
    assert np.abs(grads.sum(axis=1)).max() < 1e-14


def test_degenerate_element_errors():
    with pytest.raises(ValueError, match="degenerate"):
        triangulation_from_arrays([(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)], [(0, 1, 2)])


def test_area_sum_matches_rectangle():
    for nx, ny, lx, ly in [(3, 5, 1.0, 1.0), (7, 2, 2.5, 0.4), (40, 40, 1.0, 1.0)]:
        m = build_structured_mesh(nx, ny, lx, ly)
        areas, _ = element_areas_and_gradients(m)
        assert areas.sum() == pytest.approx(lx * ly, rel=1e-12)


def test_gradient_pair_products_nonpositive_on_non_obtuse_mesh():
    m = build_structured_mesh(6, 3, 1.2, 0.8)
    areas, grads = element_areas_and_gradients(m)
    for a in range(3):
        for b in range(3):
            if a == b:
                continue
            dots = np.einsum("ij,ij->i", grads[:, a], grads[:, b])
            assert dots.max() <= 1e-12


def test_orientation_normalization():
    # Clockwise input gets flipped to a positive area.
    m = triangulation_from_arrays([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)], [(0, 2, 1)])
    areas, _ = element_areas_and_gradients(m)
    assert areas[0] == pytest.approx(0.5)


def test_validation_rejects_bad_connectivity():
    with pytest.raises(ValueError, match="out of range"):
        triangulation_from_arrays([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)], [(0, 1, 3)])
    with pytest.raises(ValueError, match="repeated"):
        triangulation_from_arrays([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)], [(0, 1, 1)])
    nodes = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (0.5, -1.0)]
    tris = [(0, 1, 2), (1, 3, 2), (0, 1, 3), (0, 1, 4)]  # edge (0,1) used three times
    with pytest.raises(ValueError, match="more than two"):
        triangulation_from_arrays(nodes, tris)
    with pytest.raises(ValueError, match=r"^nodes must be an \(n, 2\) array$"):
        triangulation_from_arrays([(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0)], [(0, 1, 2)])
    with pytest.raises(ValueError, match=r"^triangles must be an \(m, 3\) array$"):
        triangulation_from_arrays([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)], [(0, 1)])


def test_validation_names_the_first_bad_element_and_the_smallest_bad_edge():
    nodes = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (0.5, -1.0), (2.0, 2.0)]
    for tris in ([(0, 1, 2), (1, 1, 3), (2, 3, 3)], [(0, 1, 2), (3, 1, 3), (2, 2, 3)]):
        with pytest.raises(ValueError, match=r"^element 1 has repeated vertices$"):
            triangulation_from_arrays(nodes, tris)
    # Edges (2, 3) and (0, 1) each lie in three elements, (2, 3) first in
    # element order; the error names the smaller.
    tris = [(2, 3, 5), (2, 3, 1), (3, 2, 0), (0, 1, 4), (0, 1, 2), (1, 0, 3)]
    with pytest.raises(ValueError, match=r"^edge \(0, 1\) shared by more than two elements$"):
        triangulation_from_arrays(nodes, tris)
    # Edge (1, 3) is the middle and last, the first and last, and the first
    # and middle vertex of its three elements.
    tris = [(0, 1, 3), (1, 2, 3), (1, 3, 4)]
    with pytest.raises(ValueError, match=r"^edge \(1, 3\) shared by more than two elements$"):
        triangulation_from_arrays(nodes[:5], tris)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_validation_rejects_non_finite_coordinates(bad):
    with pytest.raises(ValueError, match="vertex 1 has non-finite"):
        triangulation_from_arrays([(0.0, 0.0), (bad, 0.0), (0.0, 1.0)], [(0, 1, 2)])


def test_validation_rejects_geometry_that_overflows():
    # Finite coordinates: a squared edge length, or an edge itself, overflows.
    nodes = [(0.0, 0.0), (1e200, 0.0), (1e200, 1e200), (0.0, 1e200)]
    with pytest.raises(ValueError, match="^element 0 has an edge whose squared length is not finite$"):
        triangulation_from_arrays(nodes, [(0, 1, 2), (0, 2, 3)])
    nodes = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1e308, 2.0), (-1e308, 3.0)]
    with pytest.raises(ValueError, match="^element 1 has an edge whose squared length is not finite$"):
        triangulation_from_arrays(nodes, [(0, 1, 2), (2, 3, 4)])
    # Squared lengths near 1e300 stay finite, and so do the areas and the audit.
    m = triangulation_from_arrays(np.array([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0)]) * 1e150, [(0, 1, 2)])
    assert m.h == pytest.approx(math.sqrt(2.0) * 1e150, rel=1e-15)
    assert audit_angles(m).non_obtuse


def test_validation_rejects_elements_whose_gradient_products_overflow():
    # Subnormal doubled areas: the basis gradients' squared lengths overflow.
    square = build_structured_mesh(4, 4, 1.0, 1.0)
    with pytest.raises(ValueError, match="^element 0 is so small that its basis gradient "
                                         "products are not finite$"):
        triangulation_from_arrays(square.nodes * 1e-160, square.triangles)
    # Only the second element is that small.
    nodes = [(1.0, 1.0), (2.0, 1.0), (1.0, 2.0), (0.0, 0.0), (1e-160, 0.0), (0.0, 1e-160)]
    with pytest.raises(ValueError, match="^element 1 is so small"):
        triangulation_from_arrays(nodes, [(0, 1, 2), (3, 4, 5)])
    # At 1e-150 the products stay near 1e300 and the mesh passes.
    m = triangulation_from_arrays(square.nodes * 1e-150, square.triangles)
    _, grads = element_areas_and_gradients(m)
    assert np.isfinite(np.einsum("tad,tbd->tab", grads, grads)).all()


def test_validation_rejects_unused_vertex():
    nodes = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (5.0, 5.0)]
    with pytest.raises(ValueError, match="vertex 3 belongs to no element"):
        triangulation_from_arrays(nodes, [(0, 1, 2)])
    with pytest.raises(ValueError, match="no elements"):
        triangulation_from_arrays(nodes, np.empty((0, 3), dtype=int))


def test_mesh_file_round_trip_bit_identical(tmp_path):
    rng = np.random.default_rng(3)
    base = build_structured_mesh(4, 3, 1.0, 1.0)
    nodes = base.nodes + rng.uniform(-1e-3, 1e-3, size=base.nodes.shape)
    m = triangulation_from_arrays(nodes, base.triangles)
    path = tmp_path / "mesh.txt"
    write_mesh(m, path)
    back = read_mesh(path)
    assert np.array_equal(back.nodes, m.nodes)
    assert np.array_equal(back.triangles, m.triangles)
    assert back.h == m.h
    # write -> read -> write is byte-stable
    path2 = tmp_path / "mesh2.txt"
    write_mesh(back, path2)
    assert path.read_bytes() == path2.read_bytes()


@pytest.mark.parametrize("make_mesh", [lambda: build_structured_mesh(5, 3, 2.0, 1.0),
                                       lambda: graded_mesh(6, 8, seed=5),
                                       lambda: acute_mesh(8, 6)],
                         ids=["structured", "graded", "acute"])
def test_mesh_file_bytes_match_per_line_form(tmp_path, make_mesh):
    m = make_mesh()
    path = tmp_path / "mesh.txt"
    write_mesh(m, path)
    lines = [f"{m.n_vertices} {m.n_triangles}\n"]
    lines += [f"{float(x)!r} {float(y)!r}\n" for x, y in m.nodes]
    lines += [f"{int(a)} {int(b)} {int(c)}\n" for a, b, c in m.triangles]
    assert path.read_bytes() == "".join(lines).encode("ascii")


def test_read_mesh_rejects_malformed_files(tmp_path):
    empty = tmp_path / "empty.txt"
    empty.write_text("")
    with pytest.raises(ValueError, match="truncated"):
        read_mesh(empty)
    short = tmp_path / "short.txt"
    short.write_text("3 1\n0 0\n1 0\n")
    with pytest.raises(ValueError, match="tokens"):
        read_mesh(short)
    garbage = tmp_path / "garbage.txt"
    garbage.write_text("3 1\n0 0\n1 zero\n0 1\n0 1 2\n")
    with pytest.raises(ValueError, match="malformed"):
        read_mesh(garbage)
    header = tmp_path / "header.txt"
    header.write_text("3 one\n0 0\n1 0\n0 1\n0 1 2\n")
    with pytest.raises(ValueError, match="^mesh file header must be two integers$"):
        read_mesh(header)
