"""P1 finite-element assembly with mass lumping.

Provides the lumped mass vector, the variable-coefficient stiffness matrix,
the consistent mass matrix (needed only by the un-lumped comparison
scheme), the discrete Laplacian, and the discrete norms. Assembly is
vectorized over elements; a ``StiffnessTemplate`` precomputes the sparsity
pattern and the per-entry geometric factors so the per-step reassembly of
the variable-coefficient operator is a scatter-add into fixed CSR storage.

All quadrature is exact for P1 data; the only approximation is the
reduction of a nonlinear diffusion coefficient to one value per element,
done upstream by evaluating it at the element's vertex averages.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .mesh import Triangulation, element_areas_and_gradients

__all__ = [
    "FemContext",
    "StiffnessTemplate",
    "build_context",
    "assemble_lumped_mass",
    "consistent_mass",
    "discrete_laplacian_apply",
    "norms",
]


def assemble_lumped_mass(mesh: Triangulation) -> np.ndarray:
    """Lumped mass vector: entry a is the integral of basis function a.

    Equals area/3 summed over the elements touching each node, which is
    also the row sum of the consistent mass matrix.
    """
    areas, _ = element_areas_and_gradients(mesh)
    m = np.zeros(mesh.n_vertices)
    third = areas / 3.0
    for loc in range(3):
        np.add.at(m, mesh.triangles[:, loc], third)
    return m


class StiffnessTemplate:
    """Reusable sparsity pattern for per-element-coefficient stiffness matrices.

    The 9 local products area * grad_a . grad_b per element are computed
    once; ``assemble(coeff)`` scales them by the element coefficients and
    scatter-adds into preallocated CSR storage.
    """

    def __init__(self, mesh: Triangulation):
        areas, grads = element_areas_and_gradients(mesh)
        n = mesh.n_vertices
        nt = mesh.n_triangles
        rows = np.empty(9 * nt, dtype=np.int64)
        cols = np.empty(9 * nt, dtype=np.int64)
        geom = np.empty(9 * nt)
        k = 0
        for a in range(3):
            for b in range(3):
                rows[k * nt : (k + 1) * nt] = mesh.triangles[:, a]
                cols[k * nt : (k + 1) * nt] = mesh.triangles[:, b]
                geom[k * nt : (k + 1) * nt] = areas * np.einsum(
                    "ij,ij->i", grads[:, a], grads[:, b]
                )
                k += 1
        # Canonical CSR slot for every COO entry, so assembly is a scatter-add.
        pattern = sp.csr_matrix((np.ones(9 * nt), (rows, cols)), shape=(n, n))
        pattern.sum_duplicates()
        pattern.sort_indices()
        order = np.lexsort((cols, rows))
        slot_of_sorted = np.cumsum(
            np.r_[0, (np.diff(rows[order]) != 0) | (np.diff(cols[order]) != 0)]
        )
        slots = np.empty(9 * nt, dtype=np.int64)
        slots[order] = slot_of_sorted
        self._slots = slots
        self._geom = geom
        self._indptr = pattern.indptr
        self._indices = pattern.indices
        self._n = n
        self.n_triangles = nt

    def assemble(self, coeff: np.ndarray) -> sp.csr_matrix:
        """Stiffness matrix with nonnegative coefficient ``coeff[t]`` on element t.

        On a non-obtuse mesh the result has nonpositive off-diagonal entries
        and zero row sums.
        """
        coeff = np.asarray(coeff, dtype=float)
        if coeff.shape != (self.n_triangles,):
            raise ValueError(
                f"coefficient array has shape {coeff.shape}, expected ({self.n_triangles},)"
            )
        if np.any(coeff < 0.0):
            raise ValueError("stiffness coefficients must be nonnegative")
        data = np.zeros(len(self._indices))
        np.add.at(data, self._slots, np.tile(coeff, 9) * self._geom)
        return sp.csr_matrix(
            (data, self._indices.copy(), self._indptr.copy()), shape=(self._n, self._n)
        )


def consistent_mass(mesh: Triangulation) -> sp.csr_matrix:
    """Standard P1 mass matrix; local block is (area/12) * [[2,1,1],[1,2,1],[1,1,2]]."""
    areas, _ = element_areas_and_gradients(mesh)
    nt = mesh.n_triangles
    rows, cols, vals = [], [], []
    for a in range(3):
        for b in range(3):
            rows.append(mesh.triangles[:, a])
            cols.append(mesh.triangles[:, b])
            vals.append(areas * ((2.0 if a == b else 1.0) / 12.0))
    M = sp.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(mesh.n_vertices, mesh.n_vertices),
    )
    M.sum_duplicates()
    M.sort_indices()
    return M


def discrete_laplacian_apply(
    lumped: np.ndarray, stiffness_unit: sp.csr_matrix, n: np.ndarray
) -> np.ndarray:
    """Apply the negated discrete Laplacian: nodewise (A_unit n) / m.

    ``stiffness_unit`` must be assembled with unit coefficient. The result v
    satisfies (v, w)_h = (grad n, grad w) for every discrete w.
    """
    n = np.asarray(n, dtype=float)
    if stiffness_unit.shape[1] != n.shape[0] or lumped.shape[0] != n.shape[0]:
        raise ValueError("dimension mismatch in discrete Laplacian")
    return (stiffness_unit @ n) / lumped


@dataclass(frozen=True)
class FemContext:
    """Everything assemble-once for a fixed mesh, shared by steppers and norms."""

    mesh: Triangulation
    lumped: np.ndarray
    unit_stiffness: sp.csr_matrix
    mass: sp.csr_matrix
    stiffness_template: StiffnessTemplate = field(repr=False)

    @property
    def n_vertices(self) -> int:
        return self.mesh.n_vertices


def build_context(mesh: Triangulation) -> FemContext:
    template = StiffnessTemplate(mesh)
    return FemContext(
        mesh=mesh,
        lumped=assemble_lumped_mass(mesh),
        unit_stiffness=template.assemble(np.ones(mesh.n_triangles)),
        mass=consistent_mass(mesh),
        stiffness_template=template,
    )


def norms(ctx: FemContext, f: np.ndarray) -> tuple[float, float, float]:
    """(lumped norm, L2 norm, H1 seminorm) of a nodal field.

    The lumped norm is sqrt(sum m_a f_a^2); L2 and the seminorm use exact
    P1 quadrature via the consistent mass and unit stiffness matrices.
    """
    f = np.asarray(f, dtype=float)
    if f.shape[0] != ctx.n_vertices:
        raise ValueError("field length does not match mesh")
    norm_h = float(np.sqrt(ctx.lumped @ (f * f)))
    l2 = float(np.sqrt(max(0.0, f @ (ctx.mass @ f))))
    h1_semi = float(np.sqrt(max(0.0, f @ (ctx.unit_stiffness @ f))))
    return norm_h, l2, h1_semi
