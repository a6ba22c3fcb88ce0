"""2D conforming triangulations and the angle audit the solver depends on.

The time steppers only admit meshes whose triangles have no obtuse angle:
that sign condition (every pair of distinct P1 basis gradients has a
nonpositive product integral) is what makes the assembled diffusion
operator an M-matrix and keeps the discrete solution inside its physical
bounds. ``audit_angles`` reports both the weak (non-obtuse) and strong
(strictly acute) versions of that condition.

All element geometry comes from one edge array: edge k of an element with
corners p[0], p[1], p[2] lies opposite vertex k, ``e[k] = p[k+2] - p[k+1]``
(indices mod 3). The signed doubled area ``e[1] x e[2]`` gives orientation
and degeneracy, ``h`` is the longest ``|e[k]|``, the angle at vertex k lies
between ``e[k+2]`` and ``-e[k+1]``, and basis k's gradient is ``e[k]``
turned 90 degrees counter-clockwise over the doubled area. The array is
component-major, shape (3, 2, nt): ``e[k, 0]`` and ``e[k, 1]`` are contiguous
rows of length nt. Validation forms it once and takes from it the checks,
the orientation, ``h`` and the angle audit, which the mesh keeps;
``element_areas_and_gradients`` forms it again and may return a view.

Meshes are immutable after construction, their arrays read-only, and safe
to share across runs and threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Cosine slack when classifying angles: exactly-right angles on meshes with
# rounded coordinates may evaluate to +-1 ulp around zero.
_ANGLE_COS_TOL = 1e-12


@dataclass(frozen=True)
class Triangulation:
    """Immutable 2D triangle mesh.

    ``triangulation_from_arrays`` derives ``h`` and ``angles``;
    ``dataclasses.replace`` derives neither again.

    Attributes
    ----------
    nodes : ndarray, shape (n_vertices, 2)
        Vertex coordinates.
    triangles : ndarray, shape (n_triangles, 3)
        Vertex indices per element, normalized to positive orientation.
    h : float
        Longest edge length over all elements.
    angles : AngleReport
        The angle audit, computed during validation; ``audit_angles``
        returns it.
    """

    nodes: np.ndarray
    triangles: np.ndarray
    h: float
    angles: AngleReport

    @property
    def n_vertices(self) -> int:
        return self.nodes.shape[0]

    @property
    def n_triangles(self) -> int:
        return self.triangles.shape[0]


@dataclass(frozen=True)
class AngleReport:
    """Result of the mesh angle audit.

    ``max_neg_cosine`` is the largest value of -cos(angle) over every
    interior angle of every element; it is <= 0 exactly when no angle
    exceeds 90 degrees.
    """

    max_neg_cosine: float
    worst_element: int
    strictly_acute: bool
    non_obtuse: bool


def _edges(nodes: np.ndarray, triangles: np.ndarray) -> np.ndarray:
    """Edge vectors opposite each local vertex, ``e[k] = p[k+2] - p[k+1]``, as
    rows ``e[k, 0]`` and ``e[k, 1]`` of length nt: shape (3, 2, nt)."""
    e = np.empty((3, 2, len(triangles)))
    for c in range(2):
        p = nodes[:, c][triangles.T]
        for k in range(3):
            np.subtract(p[(k + 2) % 3], p[(k + 1) % 3], out=e[k, c])
    return e


def _doubled_areas(e: np.ndarray) -> np.ndarray:
    """Signed doubled areas ``e[1] x e[2]``; raises ``ValueError`` if one is zero."""
    det = e[1, 0] * e[2, 1] - e[1, 1] * e[2, 0]
    if np.any(det == 0.0):
        bad = int(np.nonzero(det == 0.0)[0][0])
        raise ValueError(f"element {bad} is degenerate (zero area)")
    return det


def triangulation_from_arrays(nodes, triangles) -> Triangulation:
    """Build a validated ``Triangulation`` from raw coordinate/index arrays.

    Vertex order within a triangle is flipped where needed so all elements
    end up positively oriented. Raises ``ValueError`` for non-finite
    coordinates, an empty element list, out-of-range indices, repeated
    vertices, vertices no element uses (they would get zero lumped mass),
    an element whose squared edge length overflows, degenerate elements, an
    element so small that its basis gradient products overflow, or an edge
    shared by more than two elements (non-conforming mesh).
    """
    nodes = np.ascontiguousarray(np.asarray(nodes, dtype=float))
    triangles = np.ascontiguousarray(np.asarray(triangles, dtype=np.int64))
    if nodes.ndim != 2 or nodes.shape[1] != 2:
        raise ValueError("nodes must be an (n, 2) array")
    if triangles.ndim != 2 or triangles.shape[1] != 3:
        raise ValueError("triangles must be an (m, 3) array")
    finite = np.isfinite(nodes).all(axis=1)
    if not finite.all():
        raise ValueError(f"vertex {int(np.argmin(finite))} has non-finite coordinates")
    if triangles.size == 0:
        raise ValueError("mesh has no elements")
    if triangles.min() < 0 or triangles.max() >= len(nodes):
        raise ValueError("triangle vertex index out of range")
    # Each element's vertex indices in increasing order.
    t0, t1, t2 = triangles.T
    lo = np.minimum(np.minimum(t0, t1), t2)
    hi = np.maximum(np.maximum(t0, t1), t2)
    mid = t0 + t1 + t2 - lo - hi
    repeated = np.flatnonzero((lo == mid) | (mid == hi))
    if repeated.size:
        raise ValueError(f"element {int(repeated[0])} has repeated vertices")
    used = np.bincount(triangles.ravel(), minlength=len(nodes)) > 0
    if not used.all():
        raise ValueError(f"vertex {int(np.argmin(used))} belongs to no element")

    with np.errstate(over="ignore"):
        e = _edges(nodes, triangles)
        squared = e[:, 0] * e[:, 0] + e[:, 1] * e[:, 1]
    finite = np.isfinite(squared).all(axis=0)
    if not finite.all():
        raise ValueError(f"element {int(np.argmin(finite))} has an edge whose squared length "
                         "is not finite")
    # |det| <= h**2, so no area overflows either. A flip only reverses edges,
    # so h is the same before and after it.
    det = _doubled_areas(e)
    # Basis k's gradient is e[k] turned 90 degrees over det, so its squared
    # length is (e_x / det)**2 + (e_y / det)**2, the same two terms the
    # stiffness sums. It bounds the other gradient products (Cauchy-Schwarz)
    # and overflows on a doubled area below about the longest edge times
    # 1e-154, a subnormal one for instance.
    finite = np.ones(len(det), dtype=bool)
    with np.errstate(over="ignore"):
        for k in range(3):
            gx, gy = e[k, 0] / det, e[k, 1] / det
            finite &= np.isfinite(gx * gx + gy * gy)
    del gx, gy  # before the audit, which sets the peak
    if not finite.all():
        raise ValueError(f"element {int(np.argmin(finite))} is so small that its basis "
                         "gradient products are not finite")
    flip = det < 0.0
    h = math.sqrt(float(squared.max()))
    # A flip reverses the edges and moves the angles between vertices, so
    # the audit before it sees the same cosines, to the bit.
    angles = _angle_report(e, np.sqrt(squared, out=squared))
    del e, squared, det
    if np.any(flip):
        triangles = triangles.copy()
        triangles[flip, 1:] = triangles[flip, 2:0:-1]  # swap vertices 1 and 2

    # Each edge as one key lo * n + hi over its sorted vertex pair. Sorted,
    # a key equal to the one two places on belongs to three elements.
    n = len(nodes)
    keys = np.concatenate([lo * n + mid, mid * n + hi, lo * n + hi])
    keys.sort()
    shared = keys[2:] == keys[:-2]
    if shared.any():
        lo, hi = divmod(int(keys[np.argmax(shared)]), n)
        raise ValueError(f"edge ({lo}, {hi}) shared by more than two elements")

    # Runs share meshes, so the mesh's own views of both arrays are read-only.
    nodes, triangles = nodes.view(), triangles.view()
    nodes.flags.writeable = triangles.flags.writeable = False
    return Triangulation(nodes=nodes, triangles=triangles, h=h, angles=angles)


def build_structured_mesh(nx: int, ny: int, Lx: float, Ly: float) -> Triangulation:
    """Uniform right-triangle mesh of the rectangle [0, Lx] x [0, Ly].

    Each of the nx*ny cells, in row-major order, is split along the same
    diagonal into (v00, v10, v11) and (v00, v11, v01), vij being its corner at
    offset (i, j): every element is right-angled and passes the non-obtuse audit.

    Parameters
    ----------
    nx, ny : int
        Cell counts per direction, at least 1.
    Lx, Ly : float
        Side lengths, strictly positive.
    """
    if nx < 1 or ny < 1:
        raise ValueError("cell counts must be at least 1")
    if Lx <= 0.0 or Ly <= 0.0:
        raise ValueError("side lengths must be positive")
    nodes = np.empty((ny + 1, nx + 1, 2))
    nodes[..., 0] = np.linspace(0.0, Lx, nx + 1)
    nodes[..., 1] = np.linspace(0.0, Ly, ny + 1)[:, None]
    v00 = np.arange(0, ny * (nx + 1), nx + 1)[:, None] + np.arange(nx)
    triangles = np.empty((ny, nx, 2, 3), dtype=np.int64)
    triangles[..., 0] = v00[..., None]
    triangles[:, :, 0, 1] = v00 + 1
    triangles[:, :, 0, 2] = triangles[:, :, 1, 1] = v00 + (nx + 2)
    triangles[:, :, 1, 2] = v00 + (nx + 1)
    return triangulation_from_arrays(nodes.reshape(-1, 2), triangles.reshape(-1, 3))


def _angle_report(e: np.ndarray, length: np.ndarray) -> AngleReport:
    """The angle audit of edge array ``e`` whose edge lengths are ``length``."""
    worst = -np.inf
    worst_elem = -1
    for k in range(3):
        # The angle at vertex k lies between e[k+2] and -e[k+1]. Negating after
        # the division keeps the -0.0 that right angles give.
        dot = np.einsum("ij,ij->j", e[(k + 2) % 3], -e[(k + 1) % 3])
        neg = -(dot / (length[(k + 2) % 3] * length[(k + 1) % 3]))
        idx = int(np.argmax(neg))
        if neg[idx] > worst:
            worst = float(neg[idx])
            worst_elem = idx
        elif neg[idx] == worst:
            worst_elem = min(worst_elem, idx)
    return AngleReport(
        max_neg_cosine=worst,
        worst_element=worst_elem,
        strictly_acute=bool(worst < -_ANGLE_COS_TOL),
        non_obtuse=bool(worst <= _ANGLE_COS_TOL),
    )


def audit_angles(mesh: Triangulation) -> AngleReport:
    """Classify the mesh by its worst interior angle.

    ``non_obtuse`` is true when every angle is at most 90 degrees (the
    condition the positivity-preserving steppers require); ``strictly_acute``
    when every angle is below 90 degrees. A tie for the worst angle goes to the
    smallest element index, whatever the vertex order. Report-only, never raises.
    """
    return mesh.angles


def element_areas_and_gradients(mesh: Triangulation) -> tuple[np.ndarray, np.ndarray]:
    """Areas (n_t,) and P1 basis gradients (n_t, 3, 2) for every element; the
    gradients may be a view whose ``grads[:, k, c]`` are contiguous rows."""
    e = _edges(mesh.nodes, mesh.triangles)
    det = _doubled_areas(e)
    # The gradient of basis k is (-e[k]_y, e[k]_x) over the doubled area.
    grads = np.empty((2, 3, len(det)))  # not e itself: a lower resident peak
    np.divide(e[:, ::-1].transpose(1, 0, 2), det, out=grads)
    grads[0] *= -1.0
    return 0.5 * np.abs(det), grads.transpose(2, 1, 0)


def write_mesh(mesh: Triangulation, path) -> None:
    """Write the ASCII mesh format: ``nv nt``, nv ``x y`` lines, nt ``i j k`` lines.

    Coordinates are written with ``repr`` so a read back is bit-identical.
    The file is rendered to one string and written with one call.
    """
    nodes = ("%r %r\n" * mesh.n_vertices) % tuple(mesh.nodes.ravel().tolist())
    triangles = ("%d %d %d\n" * mesh.n_triangles) % tuple(mesh.triangles.ravel().tolist())
    with open(path, "w", encoding="ascii") as f:
        f.write(f"{mesh.n_vertices} {mesh.n_triangles}\n{nodes}{triangles}")


def read_mesh(path) -> Triangulation:
    """Read the ASCII mesh format written by ``write_mesh`` (0-based indices)."""
    with open(path, "r", encoding="ascii") as f:
        tokens = f.read().split()
    if len(tokens) < 2:
        raise ValueError("mesh file truncated: missing header")
    try:
        nv, nt = int(tokens[0]), int(tokens[1])
    except ValueError as exc:
        raise ValueError("mesh file header must be two integers") from exc
    expected = 2 + 2 * nv + 3 * nt
    if len(tokens) != expected:
        raise ValueError(
            f"mesh file has {len(tokens)} tokens, expected {expected} for nv={nv} nt={nt}"
        )
    try:
        coords = np.array(tokens[2 : 2 + 2 * nv], dtype=float).reshape(nv, 2)
        tris = np.array(tokens[2 + 2 * nv :], dtype=np.int64).reshape(nt, 3)
    except ValueError as exc:
        raise ValueError("mesh file contains malformed numbers") from exc
    return triangulation_from_arrays(coords, tris)
