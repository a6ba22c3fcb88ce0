"""P1 finite-element assembly with mass lumping.

Provides the lumped mass vector, the variable-coefficient stiffness matrix,
the consistent mass matrix (needed only by the un-lumped comparison
scheme), and the discrete norms. Assembly is vectorized over elements,
and everything that depends only on the mesh is computed once:

* ``StiffnessTemplate`` sorts the 9 local pairs of every element once, by
  the key row * n + col, and that one sorted pass builds the scatter
  operator ``S``, the stiffness pattern, the consistent mass matrix ``M``
  and ``mass_slots``, the position of every stiffness slot in ``M``'s
  pattern.
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
* ``FemContext.vertex_sum`` sums the three vertex values of every element,
  for coefficients evaluated at vertex averages.

All quadrature is exact for P1 data; the only approximation is the
reduction of a nonlinear diffusion coefficient to one value per element,
done upstream by evaluating it at the element's vertex averages.
"""

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
    """Fixed CSR patterns, the stiffness scatter operator and the consistent mass.

    The 9 local products area * grad_a . grad_b per element are computed
    once and stored as the scatter operator ``S`` (stored entries x
    elements), so ``assemble(coeff)`` is one sparse product ``S @ coeff``.
    Entries whose geometric factors are all exactly zero are not stored,
    which keeps the per-step matrices as small as a sparse add that drops
    zeros would. ``diagonal_slots[a]`` is the position of entry (a, a) in
    the ``data`` array of every assembled matrix. ``mass`` is the consistent
    P1 mass matrix, whose local block is (area/12) * [[2,1,1],[1,2,1],[1,1,2]];
    its pattern holds every vertex pair of an element, and
    ``mass_slots[s]`` is the position in ``mass.data`` of stiffness slot s.
    ``areas`` and ``grads`` are the element geometry, as
    ``element_areas_and_gradients`` returns it.
    """

    def __init__(self, mesh: Triangulation, areas: np.ndarray, grads: np.ndarray):
        n = mesh.n_vertices
        nt = mesh.n_triangles
        # Entry e = (3a + b) * nt + t is the local pair (a, b) of element t,
        # keyed by its slot row * n + col. Its geometric factor is symmetric.
        keys = np.empty((3, 3, nt), dtype=np.int64)
        geom = np.empty((3, 3, nt))
        for a in range(3):
            np.add(mesh.triangles[:, a] * n, mesh.triangles.T, out=keys[a])
            for b in range(a, 3):
                geom[a, b] = geom[b, a] = areas * np.einsum("ij,ij->i", grads[:, a], grads[:, b])
        # The sort is stable, so the entries of one slot stay in increasing e,
        # the order a scatter-add would sum them in. S and the mass are built
        # from their CSR arrays directly: a COO conversion would sort each
        # row by element and change that order.
        order = np.argsort(keys.ravel(), kind="stable")
        keys = keys.ravel()[order]
        geom = geom.ravel()[order]
        elements = np.remainder(order, nt, out=order).astype(np.int32)
        del order
        starts = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
        slot_rows, slot_cols = np.divmod(keys[starts], n)
        del keys
        slot_ptr = np.append(starts, 9 * nt).astype(np.int32)
        shape = (len(starts), nt)
        del starts
        # Mass slot values: area * (2 or 1)/12 summed over the slot's entries.
        factors = np.where(slot_rows == slot_cols, 2.0 / 12.0, 1.0 / 12.0)
        mass_data = (
            sp.csr_matrix((np.repeat(factors, np.diff(slot_ptr)), elements, slot_ptr), shape=shape)
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
        self._scatter = sp.csr_matrix((geom, elements, slot_ptr), shape=shape)[kept]
        del geom, elements, slot_ptr
        self.mass_slots = np.flatnonzero(kept)
        self._indices = self.mass.indices[self.mass_slots]
        stiffness_rows = slot_rows[kept]
        self._indptr = np.zeros(n + 1, dtype=np.int32)
        np.cumsum(np.bincount(stiffness_rows, minlength=n), out=self._indptr[1:])
        self.diagonal_slots = np.flatnonzero(stiffness_rows == self._indices)
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


@dataclass(frozen=True)
class FemContext:
    """Everything assemble-once for a fixed mesh, shared by steppers and norms.

    ``vertex_sum`` is the (elements x vertices) matrix with a unit entry for
    each vertex of each element, so ``vertex_sum @ f / 3.0`` gives the
    vertex averages of a nodal field in the same sum order as
    ``f[triangles].mean(axis=1)``. ``mass_slots`` is the template's map from
    the slots of every assembled stiffness into ``mass.data``.
    """

    mesh: Triangulation
    lumped: np.ndarray
    unit_stiffness: sp.csr_matrix
    mass: sp.csr_matrix
    mass_slots: np.ndarray = field(repr=False)
    stiffness_template: StiffnessTemplate = field(repr=False)
    vertex_sum: sp.csr_matrix = field(repr=False)

    @property
    def n_vertices(self) -> int:
        return self.mesh.n_vertices


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
        mass=template.mass,
        mass_slots=template.mass_slots,
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
