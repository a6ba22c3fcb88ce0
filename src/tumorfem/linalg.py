"""Sparse linear algebra used by the assembly and the time steppers.

Matrices are SciPy CSR matrices in canonical form (sorted indices, no
duplicates); the row-offset / column-index / value triplet is exposed as
``A.indptr`` / ``A.indices`` / ``A.data``. Vectors are plain 1-D numpy
arrays. The solver is an unpreconditioned conjugate gradient written out
explicitly so iteration counts and residuals are deterministic and
reportable per step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

__all__ = ["CgResult", "cg_solve"]


@dataclass(frozen=True)
class CgResult:
    x: np.ndarray
    iterations: int
    residual: float  # relative 2-norm residual at exit


class CgError(RuntimeError):
    """Conjugate gradient failed to reach the requested tolerance."""

    def __init__(self, iterations: int, residual: float):
        super().__init__(iterations, residual)  # args rebuild the error when unpickled
        self.iterations = iterations
        self.residual = residual

    def __str__(self) -> str:
        return (f"CG did not converge within {self.iterations} iterations "
                f"(relative residual {self.residual:.3e})")


def cg_solve(
    A: sp.csr_matrix,
    b: np.ndarray,
    tol: float = 1e-10,
    maxit: int | None = None,
    x0: np.ndarray | None = None,
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
    if not np.isfinite(b).all() or (x0 is not None and not np.isfinite(x0).all()):
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
    p = r.copy()
    scratch = np.empty(n)
    rr = float(r @ r)

    # The updates run in place in the order of x + alpha * p, r - alpha * Ap
    # and r + beta * p. The root of r @ r is exactly np.linalg.norm(r) for a
    # 1-D float vector.
    for it in range(maxit + 1):
        res = math.sqrt(rr)
        if res <= tol * b_norm:
            return CgResult(x=x, iterations=it, residual=res / b_norm)
        if it == maxit:
            break
        Ap = A @ p
        alpha = rr / float(p @ Ap)
        np.add(x, np.multiply(alpha, p, out=scratch), out=x)
        np.subtract(r, np.multiply(alpha, Ap, out=Ap), out=r)
        rr_new = float(r @ r)
        np.add(r, np.multiply(rr_new / rr, p, out=p), out=p)
        rr = rr_new
    raise CgError(maxit, res / b_norm)
