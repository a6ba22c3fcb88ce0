"""Sparse linear algebra used by the assembly and the time steppers.

Matrices are SciPy CSR matrices in canonical form (sorted indices, no
duplicates); the row-offset / column-index / value triplet is exposed as
``A.indptr`` / ``A.indices`` / ``A.data``. Vectors are plain 1-D numpy
arrays. The solver is an unpreconditioned conjugate gradient (optionally
Jacobi preconditioned) written out explicitly so iteration counts and
residuals are deterministic and reportable per step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

__all__ = ["CgResult", "cg_solve", "value_symmetry_defect"]


@dataclass(frozen=True)
class CgResult:
    x: np.ndarray
    iterations: int
    residual: float  # relative 2-norm residual at exit


class CgError(RuntimeError):
    """Conjugate gradient failed to reach the requested tolerance."""

    def __init__(self, iterations: int, residual: float):
        super().__init__(
            f"CG did not converge within {iterations} iterations "
            f"(relative residual {residual:.3e})"
        )
        self.iterations = iterations
        self.residual = residual


def cg_solve(
    A: sp.csr_matrix,
    b: np.ndarray,
    tol: float = 1e-10,
    maxit: int | None = None,
    x0: np.ndarray | None = None,
    jacobi: bool = False,
) -> CgResult:
    """Conjugate gradient for a symmetric positive definite system.

    Stops when ||b - A x||_2 <= tol * ||b||_2; raises ``CgError`` if that
    does not happen within ``maxit`` iterations (default 10 n). A zero
    right-hand side returns the zero vector, and an empty system returns an
    empty solution. Raises ``ValueError`` for a non-finite ``b`` or ``x0``.
    Deterministic for fixed inputs.
    """
    n = b.shape[0]
    if A.shape != (n, n):
        raise ValueError(f"dimension mismatch: matrix {A.shape}, rhs {b.shape}")
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    if not np.all(np.isfinite(b)) or (x0 is not None and not np.all(np.isfinite(x0))):
        raise ValueError("right-hand side and initial guess must be finite")
    if n == 0:
        return CgResult(x=np.empty(0), iterations=0, residual=0.0)
    if maxit is None:
        maxit = 10 * n

    b_norm = float(np.linalg.norm(b))
    if b_norm == 0.0:
        return CgResult(x=np.zeros(n), iterations=0, residual=0.0)

    x = np.zeros(n) if x0 is None else np.array(x0, dtype=float)
    r = b - A @ x
    if jacobi:
        inv_diag = 1.0 / A.diagonal()
        z = inv_diag * r
    else:
        inv_diag = None
        z = r
    p = z.copy()
    rz = float(r @ z)

    for it in range(maxit + 1):
        res = float(np.linalg.norm(r))
        if res <= tol * b_norm:
            return CgResult(x=x, iterations=it, residual=res / b_norm)
        if it == maxit:
            break
        Ap = A @ p
        alpha = rz / float(p @ Ap)
        x = x + alpha * p
        r = r - alpha * Ap
        z = inv_diag * r if jacobi else r
        rz_new = float(r @ z)
        p = z + (rz_new / rz) * p
        rz = rz_new
    raise CgError(maxit, float(np.linalg.norm(r)) / b_norm)


def value_symmetry_defect(A: sp.csr_matrix) -> float:
    """max |A_ij - A_ji|, for checking matrices that are symmetric by contract."""
    d = A - A.T
    return float(np.abs(d.data).max()) if d.nnz else 0.0
