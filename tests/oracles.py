"""Reference formulas and helpers the tests compare the package against.

Nothing in the package needs these; they state a property of the scheme or
a solver in its textbook form so a test can check the production code
against it, or write the config files the tests read back.
"""

import dataclasses
import io
import math
import tracemalloc

import numpy as np
import scipy.sparse as sp

from tumorfem.config import RunConfig
from tumorfem.fem import FemContext
from tumorfem.mesh import Triangulation, element_areas_and_gradients
from tumorfem.model import ModelParams, vascular_factors


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


def unit_stiffness(ctx: FemContext) -> sp.csr_matrix:
    """The stiffness matrix with coefficient 1 on every element."""
    return ctx.assemble(np.ones(ctx.mesh.n_triangles))


def l2_and_h1(ctx: FemContext, f: np.ndarray) -> tuple[float, float]:
    """(L2 norm, H1 seminorm) of a nodal field, from the consistent mass and
    the unit stiffness as two separate quadratic forms."""
    l2 = float(np.sqrt(max(0.0, f @ (ctx.mass @ f))))
    h1 = float(np.sqrt(max(0.0, f @ (unit_stiffness(ctx) @ f))))
    return l2, h1


def add_at_lumped(mesh: Triangulation) -> np.ndarray:
    """Lumped mass by a scatter-add of area/3 over each local vertex in turn."""
    areas, _ = element_areas_and_gradients(mesh)
    m = np.zeros(mesh.n_vertices)
    third = areas / 3.0
    for loc in range(3):
        np.add.at(m, mesh.triangles[:, loc], third)
    return m


def norm_mesh_h(mesh: Triangulation) -> float:
    """Longest edge over all elements, from ``np.linalg.norm`` of every edge."""
    p = mesh.nodes[mesh.triangles]
    edge_len = np.stack([np.linalg.norm(p[:, (k + 1) % 3] - p[:, k], axis=1) for k in range(3)])
    return float(edge_len.max())


def norm_worst_angle(mesh: Triangulation) -> tuple[float, int]:
    """(largest -cos(angle), its element) over every interior angle, with the
    cosines taken as u . v / (|u| |v|) and both lengths from ``np.linalg.norm``;
    among equal largest values, the smallest element index."""
    p = mesh.nodes[mesh.triangles]
    worst, worst_elem = -np.inf, -1
    for k in range(3):
        u = p[:, (k + 1) % 3] - p[:, k]
        v = p[:, (k + 2) % 3] - p[:, k]
        neg = -np.einsum("ij,ij->i", u, v) / (np.linalg.norm(u, axis=1) * np.linalg.norm(v, axis=1))
        idx = int(np.argmax(neg))
        if neg[idx] > worst:
            worst, worst_elem = float(neg[idx]), idx
        elif neg[idx] == worst:
            worst_elem = min(worst_elem, idx)
    return worst, worst_elem


def corner_areas_and_gradients(mesh: Triangulation) -> tuple[np.ndarray, np.ndarray]:
    """Areas and P1 basis gradients from the corners p[0], p[1], p[2]: the
    doubled area as (p[1] - p[0]) x (p[2] - p[0]), the gradient of basis k as
    the edge p[k+2] - p[k+1] turned 90 degrees counter-clockwise over it."""
    p = mesh.nodes[mesh.triangles]
    v1 = p[:, 1] - p[:, 0]
    v2 = p[:, 2] - p[:, 0]
    det = v1[:, 0] * v2[:, 1] - v1[:, 1] * v2[:, 0]
    grads = np.empty((mesh.n_triangles, 3, 2))
    for k in range(3):
        e = p[:, (k + 2) % 3] - p[:, (k + 1) % 3]
        grads[:, k, 0] = -e[:, 1] / det
        grads[:, k, 1] = e[:, 0] / det
    return 0.5 * np.abs(det), grads


def peak_bytes(fn, *args) -> int:
    """Peak bytes that ``fn(*args)`` allocates, numpy buffers included, by tracemalloc."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def imex_reactions(tk, tk1, nk, phik, phik1, p: ModelParams):
    """The three split reaction values at given old/new nodal values.

    Evaluates the semi-implicit forms exactly as the steppers use them;
    with all five arguments supplied this is the algebraic identity behind
    the nodal updates, handy for cancellation and closed-form tests.
    """
    P, root = vascular_factors(phik, tk, p.K)
    f1 = (
        p.rho * P * (tk * (1.0 - tk1 / p.K) - tk1 * (nk + phik) / p.K)
        - p.alpha * tk1 * root
        - p.beta1 * nk * tk1
    )
    f2 = (
        p.alpha * tk1 * root
        + p.beta1 * nk * tk1
        + p.delta * tk1 * phik1
        + p.beta2 * nk * phik1
    )
    f3 = (
        p.gamma * (tk1 / p.K) * root * (phik * (1.0 - phik1 / p.K) - phik1 * (tk + nk) / p.K)
        - p.delta * tk1 * phik1
        - p.beta2 * nk * phik1
    )
    return f1, f2, f3


def textbook_bicgstab(A, b, tol, maxit, x0):
    """Right-Jacobi-scaled BiCGSTAB as van der Vorst writes it: new vectors each step.

    Returns (x, iterations, relative residual, outcome), where outcome is
    "converged", "maxit", "non-finite" or the quantity that broke down.
    """
    b_norm = float(np.linalg.norm(b))
    inv_diag = 1.0 / A.diagonal()
    x = np.array(x0, dtype=float)
    r = b - A @ x
    r0 = r.copy()
    p = v = np.zeros(len(b))
    rho_old = alpha = omega = 1.0
    it = 0
    res = float(np.linalg.norm(r))
    while True:
        if res <= tol * b_norm:
            return x, it, res / b_norm, "converged"
        if not math.isfinite(res):
            return x, it, res / b_norm, "non-finite"
        if it == maxit:
            return x, it, res / b_norm, "maxit"
        it += 1
        rho = float(r0 @ r)
        if rho == 0.0:
            return x, it, res / b_norm, "rho"
        beta = (rho / rho_old) * (alpha / omega)
        p = r + beta * (p - omega * v)
        p_hat = inv_diag * p
        v = A @ p_hat
        r0v = float(r0 @ v)
        if r0v == 0.0:
            return x, it, res / b_norm, "r0 . v"
        alpha = rho / r0v
        s = r - alpha * v
        res = float(np.linalg.norm(s))
        if res <= tol * b_norm:
            return x + alpha * p_hat, it, res / b_norm, "converged"
        if not math.isfinite(res):
            return x, it, res / b_norm, "non-finite"
        s_hat = inv_diag * s
        t = A @ s_hat
        omega = float(t @ s) / float(t @ t)
        if omega == 0.0:
            return x, it, res / b_norm, "omega"
        x = x + alpha * p_hat + omega * s_hat
        r = s - omega * t
        res = float(np.linalg.norm(r))
        rho_old = rho


def gronwall_constants(p: ModelParams) -> tuple[float, float]:
    """(C1, C2) with dN/dt <= C1 N + C2 whenever T, Phi stay in [0, K].

    C1 = (beta1 + beta2) K bounds the N-proportional terms, C2 = alpha K +
    delta K^2 the rest; they give the exponential ceiling
    N^k <= N^0 exp(C1 t) + C2 (exp(C1 t) - 1)/C1.
    """
    return (p.beta1 + p.beta2) * p.K, p.alpha * p.K + p.delta * p.K * p.K


PARAM_KEYS = tuple(f.name for f in dataclasses.fields(ModelParams))
FIELDS = ("T", "N", "Phi")


def profile_lines(name: str, profile) -> list[str]:
    """A profile's config lines; a constant one is written as its flat Gaussian."""
    return [
        f"{name}_profile = gaussian",
        f"{name}_base = {profile.base!r}",
        f"{name}_amplitude = {profile.amplitude!r}",
        f"{name}_center_x = {profile.center[0]!r}",
        f"{name}_center_y = {profile.center[1]!r}",
        f"{name}_width = {profile.width!r}",
    ]


def serialize_config(config: RunConfig) -> str:
    """Config-file text that ``parse_config`` reads back to ``config``.

    Floats are written with ``repr``, so a write/parse cycle is bit-identical.
    """
    buf = io.StringIO()
    w = buf.write
    w("[mesh]\n")
    if config.mesh.path:
        w("type = file\n")
        w(f"path = {config.mesh.path}\n")
    else:
        w("type = structured\n")
        w(f"nx = {config.mesh.nx}\n")
        w(f"ny = {config.mesh.ny}\n")
        w(f"lx = {config.mesh.lx!r}\n")
        w(f"ly = {config.mesh.ly!r}\n")
    w("\n[params]\n")
    for key in PARAM_KEYS:
        w(f"{key} = {getattr(config.params, key)!r}\n")
    w("\n[time]\n")
    w(f"dt = {config.dt!r}\n")
    w(f"tf = {config.tf!r}\n")
    w("\n[scheme]\n")
    w(f"variant = {config.variant.value}\n")
    w(f"label = {config.label}\n")
    w("\n[initial]\n")
    for name in FIELDS:
        for line in profile_lines(name, getattr(config.initial, name)):
            w(line + "\n")
    w("\n[solver]\n")
    w(f"tol = {config.solver.tol!r}\n")
    w(f"maxit = {config.solver.maxit}\n")
    w("\n[output]\n")
    w(f"directory = {config.output.directory}\n")
    w(f"snapshot_every = {config.output.snapshot_every}\n")
    return buf.getvalue()


def write_config_file(config: RunConfig, path: str) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(serialize_config(config))
