"""P1 finite-element assembly with mass lumping.

``FemContext`` holds everything that depends only on the mesh: the lumped
mass vector, the consistent mass matrix (needed only by the un-lumped
comparison scheme), the stiffness pattern with its scatter operator, the
energy matrix and a vertex-sum operator. Assembly is vectorized over
elements:

* The 9 local pairs of every element are sorted once, by the key
  row * n + col, and that one sorted pass builds the scatter operator
  ``S``, the stiffness pattern, the consistent mass matrix ``M`` and
  ``mass_slots``, the position of every stiffness slot in ``M``'s pattern.
* ``S`` has one row per stored stiffness entry and one column per element;
  its values are the geometric factors area * grad_a . grad_b, so the
  per-step values for element coefficients ``c`` are ``S @ c``.
* Pattern slots whose every geometric factor is exactly zero are left
  out of the stiffness, not of ``M``. On right triangles with axis-aligned
  legs these are the entries coupling the two ends of a hypotenuse, whose
  basis gradients are orthogonal; a sparse add drops those zeros, so CG
  would otherwise multiply by them on every iteration.
* Within a slot the contributions keep the order in which a scatter-add
  over the elements visits them, so ``S @ c`` and every entry of ``M``
  are summed in that sequence and equal that scatter-add bit for bit.
* ``energy`` is ``M + A_1``, the unit-coefficient stiffness added on the
  mass pattern, so ``f @ (energy @ f)`` is the squared H1 norm of a
  nodal field.

All quadrature is exact for P1 data; the only approximation is the
reduction of a nonlinear diffusion coefficient to one value per element,
done upstream by evaluating it at the element's vertex averages.
"""

import copy

import numpy as np
import scipy.sparse as sp

from .linalg import csr_product
from .mesh import Triangulation, element_areas_and_gradients

__all__ = [
    "FemContext",
    "build_context",
    "norms",
]


class FemContext:
    """The mesh-only operators, built once per mesh and shared by steppers and norms.

    ``lumped[a]`` is the integral of basis function a, area/3 summed over
    the elements touching node a in element order. ``mass`` is the
    consistent P1 mass matrix, whose local block is
    (area/12) * [[2,1,1],[1,2,1],[1,1,2]]; its pattern holds every vertex
    pair of an element, and ``mass_slots[s]`` is the position in
    ``mass.data`` of stiffness slot s. ``diagonal_slots[a]`` is the position
    of entry (a, a) in the ``data`` array of every assembled stiffness.
    ``energy`` is ``M + A_1`` on the mass pattern, sharing its ``indices``
    and ``indptr``. ``vertex_sum`` is the (elements x vertices) matrix with
    a unit entry for each vertex of each element, so ``vertex_sum @ f / 3.0``
    gives the vertex averages of a nodal field in the same sum order as
    ``f[triangles].mean(axis=1)``.
    """

    def __init__(self, mesh: Triangulation):
        n = mesh.n_vertices
        nt = mesh.n_triangles
        areas, grads = element_areas_and_gradients(mesh)
        # Entry e = (3a + b) * nt + t is the local pair (a, b) of element t,
        # keyed by its slot row * n + col. Its geometric factor is symmetric.
        grads = grads.transpose(2, 1, 0)  # contiguous component rows, (2, 3, nt)
        triangles = mesh.triangles.T.copy()
        keys = np.empty((3, 3, nt), dtype=np.int64)
        geom = np.empty((3, 3, nt))
        for a in range(3):
            np.add(triangles[a] * n, triangles, out=keys[a])
            for b in range(a, 3):
                geom[a, b] = geom[b, a] = areas * np.einsum("ij,ij->j", grads[:, a], grads[:, b])
        del grads, triangles
        # The sort is stable, so the entries of one slot stay in increasing e,
        # the order a scatter-add would sum them in. S and the mass are built
        # from their CSR arrays directly: a COO conversion would sort each
        # row by element and change that order.
        order = np.argsort(keys.ravel(), kind="stable")
        keys = keys.ravel()[order]
        geom = geom.ravel()[order]
        elements = order.astype(np.int32)
        del order  # before the remainder: a lower resident peak, not a traced one
        np.remainder(elements, nt, out=elements)
        starts = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
        slot_rows, slot_cols = np.divmod(keys[starts], n)
        del keys
        slot_ptr = np.append(starts, 9 * nt).astype(np.int32)
        counts = np.diff(slot_ptr)
        shape = (len(starts), nt)
        del starts
        # Mass slot values: area * (2 or 1)/12 summed over the slot's entries.
        factors = np.where(slot_rows == slot_cols, 2.0 / 12.0, 1.0 / 12.0)
        mass_data = (
            sp.csr_matrix((np.repeat(factors, counts), elements, slot_ptr), shape=shape)
            @ areas
        )
        del factors
        mass_indptr = np.zeros(n + 1, dtype=np.int32)
        np.cumsum(np.bincount(slot_rows, minlength=n), out=mass_indptr[1:])
        self.mass = sp.csr_matrix(
            (mass_data, slot_cols.astype(np.int32), mass_indptr), shape=(n, n)
        )
        # A slot is kept when one of its factors is nonzero, which is when
        # the sum of their magnitudes is.
        kept = sp.csr_matrix((np.abs(geom), elements, slot_ptr), shape=shape) @ np.ones(nt) > 0.0
        # S takes the kept slots' entries directly, not a row slice of a full copy.
        entries = np.repeat(kept, counts)
        kept_ptr = np.zeros(np.count_nonzero(kept) + 1, dtype=np.int32)
        np.cumsum(counts[kept], out=kept_ptr[1:])
        self._scatter = sp.csr_matrix((geom[entries], elements[entries], kept_ptr),
                                      shape=(len(kept_ptr) - 1, nt))
        del geom, elements, slot_ptr, counts, entries
        self.mass_slots = np.flatnonzero(kept)
        indices = self.mass.indices[self.mass_slots]
        stiffness_rows = slot_rows[kept]
        indptr = np.zeros(n + 1, dtype=np.int32)
        np.cumsum(np.bincount(stiffness_rows, minlength=n), out=indptr[1:])
        self.diagonal_slots = np.flatnonzero(stiffness_rows == indices)
        # Every assembled matrix shares the pattern; a structural change in place raises.
        indices.flags.writeable = False
        indptr.flags.writeable = False
        # The pattern-only matrix that assemble copies. Its data is one zero
        # seen through a zero stride, so it holds no value per entry.
        self._template = sp.csr_matrix(
            (np.broadcast_to(0.0, indices.shape), indices, indptr), shape=(n, n)
        )
        energy_data = self.mass.data.copy()
        energy_data[self.mass_slots] += self._scatter @ np.ones(nt)
        self.energy = sp.csr_matrix((energy_data, self.mass.indices, self.mass.indptr), shape=(n, n))
        # bincount sums in index order, local vertex 0 of every element first,
        # the order of a scatter-add over the local vertices.
        self.lumped = np.bincount(mesh.triangles.T.ravel(), np.tile(areas / 3.0, 3), n)
        self.vertex_sum = sp.csr_matrix(
            (
                np.ones(3 * nt),
                mesh.triangles.astype(np.int32).ravel(),
                np.arange(0, 3 * nt + 1, 3, dtype=np.int32),
            ),
            shape=(nt, n),
        )
        self.mesh = mesh

    def assemble(self, coeff: np.ndarray) -> sp.csr_matrix:
        """Stiffness matrix with nonnegative coefficient ``coeff[t]`` on element t.

        On a non-obtuse mesh the result has nonpositive off-diagonal entries
        and zero row sums. Entries whose geometric factors are all exactly
        zero are not stored. The result is a shallow copy of the context's
        pattern-only template with ``data`` set to ``S @ coeff``, so no sparse
        constructor runs. Each call returns a new ``data`` array, which may
        be modified in place; ``indices`` and ``indptr`` are the context's
        own read-only arrays, shared by every assembled matrix, so an
        in-place structural operation such as ``eliminate_zeros()`` raises
        instead of changing them.
        """
        coeff = np.asarray(coeff, dtype=float)
        if coeff.min(initial=0.0) < 0.0:  # NaN passes, as it passes np.any(coeff < 0.0)
            raise ValueError("stiffness coefficients must be nonnegative")
        A = copy.copy(self._template)
        A.data = csr_product(self._scatter, coeff)
        return A


StiffnessTemplate = FemContext  # only perfbench's tracer uses this name


def build_context(mesh: Triangulation) -> FemContext:
    return FemContext(mesh)


def norms(ctx: FemContext, f: np.ndarray) -> float:
    """Squared H1 norm ``||f||_L2^2 + |f|_H1^2`` of a nodal field, as ``f @ (energy @ f)``.

    Exact P1 quadrature; the consistent mass and the unit stiffness enter
    through ``ctx.energy``.
    """
    f = np.asarray(f, dtype=float)
    return max(0.0, float(f @ csr_product(ctx.energy, f)))
