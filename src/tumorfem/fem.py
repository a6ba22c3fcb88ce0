"""P1 finite-element assembly with mass lumping.

Provides the lumped mass vector, the variable-coefficient stiffness matrix,
the consistent mass matrix (needed only by the un-lumped comparison
scheme), and the discrete norms. Assembly is vectorized over elements,
and everything that depends only on the mesh is computed once:

* ``StiffnessTemplate`` holds the CSR pattern of the stiffness matrix and
  a scatter operator ``S`` (one row per stored entry, one column per
  element) whose values are the geometric factors area * grad_a . grad_b.
  The per-step values for element coefficients ``c`` are ``S @ c``.
* Pattern slots whose every geometric factor is exactly zero are left
  out. On right triangles with axis-aligned legs these are the entries
  coupling the two ends of a hypotenuse, whose basis gradients are
  orthogonal; a sparse add drops those zeros, so CG would otherwise
  multiply by them on every iteration.
* Within a row of ``S`` the contributions keep the order in which a
  scatter-add over the elements visits them, so ``S @ c`` sums them in
  the same sequence and equals that scatter-add bit for bit.
* ``FemContext.vertex_sum`` sums the three vertex values of every element,
  for coefficients evaluated at vertex averages.

All quadrature is exact for P1 data; the only approximation is the
reduction of a nonlinear diffusion coefficient to one value per element,
done upstream by evaluating it at the element's vertex averages.
"""

import functools
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .mesh import Triangulation, element_areas_and_gradients

__all__ = [
    "FemContext",
    "StiffnessTemplate",
    "build_context",
    "norms",
]


def _lumped_mass(mesh: Triangulation, areas: np.ndarray) -> np.ndarray:
    """Lumped mass vector: entry a is the integral of basis function a.

    Equals area/3 summed over the elements touching each node, which is
    also the row sum of the consistent mass matrix.
    """
    m = np.zeros(mesh.n_vertices)
    third = areas / 3.0
    for loc in range(3):
        np.add.at(m, mesh.triangles[:, loc], third)
    return m


class StiffnessTemplate:
    """Fixed CSR pattern and scatter operator for per-element-coefficient stiffness.

    The 9 local products area * grad_a . grad_b per element are computed
    once and stored as the scatter operator ``S`` (stored entries x
    elements), so ``assemble(coeff)`` is one sparse product ``S @ coeff``.
    Entries whose geometric factors are all exactly zero are not stored,
    which keeps the per-step matrices as small as a sparse add that drops
    zeros would. ``diagonal_slots[a]`` is the position of entry (a, a) in
    the ``data`` array of every assembled matrix. ``areas`` and ``grads``
    are the element geometry, as ``element_areas_and_gradients`` returns it.
    """

    def __init__(self, mesh: Triangulation, areas: np.ndarray, grads: np.ndarray):
        n = mesh.n_vertices
        nt = mesh.n_triangles
        # Entry e = k * nt + t is the local pair k = (a, b) of element t.
        rows = np.empty(9 * nt, dtype=np.int32)
        cols = np.empty(9 * nt, dtype=np.int32)
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
        # Sort by (row, col); the sort is stable, so the entries of one slot
        # stay in increasing e, the order a scatter-add would sum them in.
        # S is built from its CSR arrays directly: a COO conversion would
        # sort each row by element and change that order.
        order = np.lexsort((cols, rows))
        rows = rows[order]
        cols = cols[order]
        geom = geom[order]
        elements = np.remainder(order, nt, out=order).astype(np.int32)
        del order
        first = np.empty(9 * nt, dtype=bool)
        first[0] = True
        np.not_equal(rows[1:], rows[:-1], out=first[1:])
        first[1:] |= cols[1:] != cols[:-1]
        starts = np.flatnonzero(first)
        del first
        sizes = np.diff(np.append(starts, 9 * nt))
        kept = np.logical_or.reduceat(geom != 0.0, starts)
        entry_kept = np.repeat(kept, sizes)
        starts = starts[kept]
        scatter_indptr = np.zeros(len(starts) + 1, dtype=np.int32)
        np.cumsum(sizes[kept], out=scatter_indptr[1:])
        del sizes, kept
        self._scatter = sp.csr_matrix(
            (geom[entry_kept], elements[entry_kept], scatter_indptr),
            shape=(len(starts), nt),
        )
        del geom, elements, entry_kept
        slot_rows = rows[starts]
        self._indices = cols[starts]
        del rows, cols, starts
        self._indptr = np.zeros(n + 1, dtype=np.int32)
        np.cumsum(np.bincount(slot_rows, minlength=n), out=self._indptr[1:])
        self.diagonal_slots = np.flatnonzero(slot_rows == self._indices)
        # Every assembled matrix shares the pattern; a structural change in place raises.
        self._indices.flags.writeable = False
        self._indptr.flags.writeable = False
        self._n = n
        self.n_triangles = nt

    def assemble(self, coeff: np.ndarray) -> sp.csr_matrix:
        """Stiffness matrix with nonnegative coefficient ``coeff[t]`` on element t.

        On a non-obtuse mesh the result has nonpositive off-diagonal entries
        and zero row sums. Each call returns a new ``data`` array, which may
        be modified in place; ``indices`` and ``indptr`` are the template's
        own read-only arrays, so an in-place structural operation such as
        ``eliminate_zeros()`` raises instead of changing the template.
        """
        coeff = np.asarray(coeff, dtype=float)
        if coeff.shape != (self.n_triangles,):
            raise ValueError(
                f"coefficient array has shape {coeff.shape}, expected ({self.n_triangles},)"
            )
        if np.any(coeff < 0.0):
            raise ValueError("stiffness coefficients must be nonnegative")
        return sp.csr_matrix(
            (self._scatter @ coeff, self._indices, self._indptr),
            shape=(self._n, self._n),
        )


def _consistent_mass(mesh: Triangulation, areas: np.ndarray) -> sp.csr_matrix:
    """Standard P1 mass matrix; local block is (area/12) * [[2,1,1],[1,2,1],[1,1,2]]."""
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


@dataclass(frozen=True)
class FemContext:
    """Everything assemble-once for a fixed mesh, shared by steppers and norms.

    ``vertex_sum`` is the (elements x vertices) matrix with a unit entry for
    each vertex of each element, so ``vertex_sum @ f / 3.0`` gives the
    vertex averages of a nodal field in the same sum order as
    ``f[triangles].mean(axis=1)``.
    """

    mesh: Triangulation
    lumped: np.ndarray
    unit_stiffness: sp.csr_matrix
    mass: sp.csr_matrix
    stiffness_template: StiffnessTemplate = field(repr=False)
    vertex_sum: sp.csr_matrix = field(repr=False)

    @property
    def n_vertices(self) -> int:
        return self.mesh.n_vertices

    @functools.cached_property
    def mass_slots(self) -> np.ndarray:
        """Position in ``mass.data`` of every stored entry of the assembled stiffness.

        Every stiffness slot couples two vertices of one element, so it is
        also a slot of the mass pattern; ``unit_stiffness`` has the pattern
        of every assembled stiffness. Computed on first use: only the
        consistent-mass scheme needs it.
        """
        M, A = self.mass, self.unit_stiffness
        rows = np.arange(self.n_vertices, dtype=np.int64)
        mass_keys = np.repeat(rows, np.diff(M.indptr)) * len(rows) + M.indices
        stiffness_keys = np.repeat(rows, np.diff(A.indptr)) * len(rows) + A.indices
        return np.searchsorted(mass_keys, stiffness_keys)


def build_context(mesh: Triangulation) -> FemContext:
    areas, grads = element_areas_and_gradients(mesh)
    template = StiffnessTemplate(mesh, areas, grads)
    del grads
    nt = mesh.n_triangles
    vertex_sum = sp.csr_matrix(
        (
            np.ones(3 * nt),
            mesh.triangles.astype(np.int32).ravel(),
            np.arange(0, 3 * nt + 1, 3, dtype=np.int32),
        ),
        shape=(nt, mesh.n_vertices),
    )
    return FemContext(
        mesh=mesh,
        lumped=_lumped_mass(mesh, areas),
        unit_stiffness=template.assemble(np.ones(nt)),
        mass=_consistent_mass(mesh, areas),
        stiffness_template=template,
        vertex_sum=vertex_sum,
    )


def norms(ctx: FemContext, f: np.ndarray) -> tuple[float, float]:
    """(L2 norm, H1 seminorm) of a nodal field.

    Both use exact P1 quadrature via the consistent mass and unit stiffness
    matrices.
    """
    f = np.asarray(f, dtype=float)
    if f.shape[0] != ctx.n_vertices:
        raise ValueError("field length does not match mesh")
    l2 = float(np.sqrt(max(0.0, f @ (ctx.mass @ f))))
    h1_semi = float(np.sqrt(max(0.0, f @ (ctx.unit_stiffness @ f))))
    return l2, h1_semi
