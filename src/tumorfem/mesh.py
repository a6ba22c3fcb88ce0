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
turned 90 degrees counter-clockwise over the doubled area.

Meshes are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Triangulation",
    "AngleReport",
    "triangulation_from_arrays",
    "build_structured_mesh",
    "audit_angles",
    "element_areas_and_gradients",
    "read_mesh",
    "write_mesh",
]

# Cosine slack when classifying angles: exactly-right angles on meshes with
# rounded coordinates may evaluate to +-1 ulp around zero.
_ANGLE_COS_TOL = 1e-12


@dataclass(frozen=True)
class Triangulation:
    """Immutable 2D triangle mesh.

    Attributes
    ----------
    nodes : ndarray, shape (n_vertices, 2)
        Vertex coordinates.
    triangles : ndarray, shape (n_triangles, 3)
        Vertex indices per element, normalized to positive orientation.
    h : float
        Longest edge length over all elements.
    """

    nodes: np.ndarray
    triangles: np.ndarray
    h: float

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
    """Edge vectors opposite each local vertex, ``e[k] = p[k+2] - p[k+1]``, shape (3, nt, 2)."""
    p = nodes[triangles.T]
    e = np.empty(p.shape)
    for k in range(3):
        np.subtract(p[(k + 2) % 3], p[(k + 1) % 3], out=e[k])
    return e


def _doubled_areas(e: np.ndarray) -> np.ndarray:
    """Signed doubled areas ``e[1] x e[2]``; raises ``ValueError`` if one is zero."""
    det = e[1, :, 0] * e[2, :, 1] - e[1, :, 1] * e[2, :, 0]
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
    degenerate elements, or an edge shared by more than two elements
    (non-conforming mesh).
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
    ordered = np.sort(triangles, axis=1)
    repeated = np.nonzero((ordered[:, 0] == ordered[:, 1]) | (ordered[:, 1] == ordered[:, 2]))[0]
    if repeated.size:
        raise ValueError(f"element {int(repeated[0])} has repeated vertices")
    used = np.bincount(triangles.ravel(), minlength=len(nodes)) > 0
    if not used.all():
        raise ValueError(f"vertex {int(np.argmin(used))} belongs to no element")

    e = _edges(nodes, triangles)
    flip = _doubled_areas(e) < 0.0
    # A flip only reverses edges, so h is the same before and after it.
    h = math.sqrt(float((e * e).sum(-1).max()))
    del e
    if np.any(flip):
        triangles = triangles.copy()
        triangles[flip, 1:] = triangles[flip, 2:0:-1]  # swap vertices 1 and 2

    # Each edge as one key lo * n + hi over its sorted vertex pair.
    edges = np.concatenate([ordered[:, [0, 1]], ordered[:, [1, 2]], ordered[:, [0, 2]]])
    keys, counts = np.unique(edges[:, 0] * len(nodes) + edges[:, 1], return_counts=True)
    if counts.max() > 2:
        lo, hi = divmod(int(keys[np.argmax(counts > 2)]), len(nodes))
        raise ValueError(f"edge ({lo}, {hi}) shared by more than two elements")

    return Triangulation(nodes=nodes, triangles=triangles, h=h)


def build_structured_mesh(nx: int, ny: int, Lx: float, Ly: float) -> Triangulation:
    """Uniform right-triangle mesh of the rectangle [0, Lx] x [0, Ly].

    Each of the nx*ny cells is split along the same diagonal, so every
    element is a right triangle and the mesh passes the non-obtuse audit.

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
    xs = np.linspace(0.0, Lx, nx + 1)
    ys = np.linspace(0.0, Ly, ny + 1)
    X, Y = np.meshgrid(xs, ys, indexing="xy")
    nodes = np.column_stack([X.ravel(), Y.ravel()])

    i = np.arange(nx)
    j = np.arange(ny)
    I, J = np.meshgrid(i, j, indexing="xy")
    v00 = (J * (nx + 1) + I).ravel()
    v10 = v00 + 1
    v01 = v00 + (nx + 1)
    v11 = v01 + 1
    lower = np.column_stack([v00, v10, v11])
    upper = np.column_stack([v00, v11, v01])
    triangles = np.empty((2 * nx * ny, 3), dtype=np.int64)
    triangles[0::2] = lower
    triangles[1::2] = upper
    return triangulation_from_arrays(nodes, triangles)


def audit_angles(mesh: Triangulation) -> AngleReport:
    """Classify the mesh by its worst interior angle.

    ``non_obtuse`` is true when every angle is at most 90 degrees (the
    condition the positivity-preserving steppers require); ``strictly_acute``
    when every angle is below 90 degrees. A tie for the worst angle goes to the
    smallest element index, whatever the vertex order. Report-only, never raises.
    """
    e = _edges(mesh.nodes, mesh.triangles)
    length = np.sqrt((e * e).sum(-1))
    worst = -np.inf
    worst_elem = -1
    for k in range(3):
        # The angle at vertex k lies between e[k+2] and -e[k+1]. Negating after
        # the division keeps the -0.0 that right angles give.
        dot = np.einsum("ij,ij->i", e[(k + 2) % 3], -e[(k + 1) % 3])
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


def element_areas_and_gradients(mesh: Triangulation) -> tuple[np.ndarray, np.ndarray]:
    """Areas (n_t,) and P1 basis gradients (n_t, 3, 2) for every element."""
    e = _edges(mesh.nodes, mesh.triangles)
    det = _doubled_areas(e)
    # The gradient of basis k is (-e[k]_y, e[k]_x) over the doubled area.
    grads = np.empty((mesh.n_triangles, 3, 2))
    np.divide(e.transpose(1, 0, 2)[..., ::-1], det[:, None, None], out=grads)
    grads[..., 0] *= -1.0
    return 0.5 * np.abs(det), grads


def write_mesh(mesh: Triangulation, path) -> None:
    """Write the ASCII mesh format: ``nv nt``, nv ``x y`` lines, nt ``i j k`` lines.

    Coordinates are written with ``repr`` so a read back is bit-identical.
    """
    with open(path, "w", encoding="ascii") as f:
        f.write(f"{mesh.n_vertices} {mesh.n_triangles}\n")
        for x, y in mesh.nodes:
            f.write(f"{float(x)!r} {float(y)!r}\n")
        for a, b, c in mesh.triangles:
            f.write(f"{int(a)} {int(b)} {int(c)}\n")


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
