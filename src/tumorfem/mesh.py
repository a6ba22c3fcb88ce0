"""2D conforming triangulations and the angle audit the solver depends on.

The time steppers only admit meshes whose triangles have no obtuse angle:
that sign condition (every pair of distinct P1 basis gradients has a
nonpositive product integral) is what makes the assembled diffusion
operator an M-matrix and keeps the discrete solution inside its physical
bounds. ``audit_angles`` reports both the weak (non-obtuse) and strong
(strictly acute) versions of that condition.

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


def _signed_doubled_areas(nodes: np.ndarray, triangles: np.ndarray) -> np.ndarray:
    p = nodes[triangles]
    v1 = p[:, 1] - p[:, 0]
    v2 = p[:, 2] - p[:, 0]
    return v1[:, 0] * v2[:, 1] - v1[:, 1] * v2[:, 0]


def _squared_lengths(v: np.ndarray) -> np.ndarray:
    """Squared lengths of the rows of an (m, 2) array, as ``np.linalg.norm``
    sums them, so their roots equal ``np.linalg.norm(v, axis=1)`` bit for bit."""
    return v[:, 0] * v[:, 0] + v[:, 1] * v[:, 1]


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

    det = _signed_doubled_areas(nodes, triangles)
    flip = det < 0.0
    if np.any(flip):
        triangles = triangles.copy()
        triangles[flip, 1], triangles[flip, 2] = (
            triangles[flip, 2].copy(),
            triangles[flip, 1].copy(),
        )
        det = np.abs(det)
    if np.any(det == 0.0):
        bad = int(np.nonzero(det == 0.0)[0][0])
        raise ValueError(f"element {bad} is degenerate (zero area)")

    # Each edge as one key lo * n + hi over its sorted vertex pair.
    edges = np.concatenate([ordered[:, [0, 1]], ordered[:, [1, 2]], ordered[:, [0, 2]]])
    keys, counts = np.unique(edges[:, 0] * len(nodes) + edges[:, 1], return_counts=True)
    if counts.max() > 2:
        lo, hi = divmod(int(keys[np.argmax(counts > 2)]), len(nodes))
        raise ValueError(f"edge ({lo}, {hi}) shared by more than two elements")

    p = nodes[triangles]
    longest = max(float(_squared_lengths(p[:, (k + 1) % 3] - p[:, k]).max()) for k in range(3))
    return Triangulation(nodes=nodes, triangles=triangles, h=math.sqrt(longest))


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
    when every angle is below 90 degrees. Report-only, never raises.
    """
    p = mesh.nodes[mesh.triangles]
    worst = -np.inf
    worst_elem = -1
    for k in range(3):
        a = p[:, k]
        b = p[:, (k + 1) % 3]
        c = p[:, (k + 2) % 3]
        u = b - a
        v = c - a
        cosang = np.einsum("ij,ij->i", u, v) / (
            np.sqrt(_squared_lengths(u)) * np.sqrt(_squared_lengths(v))
        )
        neg = -cosang
        idx = int(np.argmax(neg))
        if neg[idx] > worst:
            worst = float(neg[idx])
            worst_elem = idx
    return AngleReport(
        max_neg_cosine=worst,
        worst_element=worst_elem,
        strictly_acute=bool(worst < -_ANGLE_COS_TOL),
        non_obtuse=bool(worst <= _ANGLE_COS_TOL),
    )


def element_areas_and_gradients(mesh: Triangulation) -> tuple[np.ndarray, np.ndarray]:
    """Areas (n_t,) and P1 basis gradients (n_t, 3, 2) for every element."""
    det = _signed_doubled_areas(mesh.nodes, mesh.triangles)
    if np.any(det == 0.0):
        bad = int(np.nonzero(det == 0.0)[0][0])
        raise ValueError(f"element {bad} is degenerate (zero area)")
    p = mesh.nodes[mesh.triangles]
    grads = np.empty((mesh.n_triangles, 3, 2))
    for loc in range(3):
        # Gradient of basis `loc` is the rotated opposite edge over 2*area.
        e = p[:, (loc + 2) % 3] - p[:, (loc + 1) % 3]
        grads[:, loc, 0] = -e[:, 1] / det
        grads[:, loc, 1] = e[:, 0] / det
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
