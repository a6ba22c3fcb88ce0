"""Sparse linear algebra used by the assembly and the time steppers.

Matrices are SciPy CSR matrices in canonical form (sorted indices, no
duplicates); the row-offset / column-index / value triplet is exposed as
``A.indptr`` / ``A.indices`` / ``A.data``. Vectors are plain 1-D numpy
arrays.

Every per-step sparse product goes through ``csr_product(A, x)``. It calls
``csr_matvec`` from ``scipy.sparse._sparsetools``, the compiled kernel that
``A @ x`` itself ends in, on a zeroed output, so its result is ``A @ x`` bit
for bit: the same kernel sums each row in the same order from the same
zero. It skips what ``@`` does around that call (operand dispatch, shape
and dtype inference), which at n = 1,681 is about a quarter of a
product's cost. The tests compare it with ``@`` on every matrix a FEM
context holds, so a SciPy release that moves the private kernel fails
there.

Two Krylov solvers are written out explicitly, so iteration counts
and residuals are deterministic and reportable per step:

* ``cg_solve``, unpreconditioned conjugate gradient, for the symmetric
  positive definite lumped tumor systems;
* ``bicgstab_solve``, BiCGSTAB (van der Vorst, SIAM J. Sci. Stat. Comput.
  13, 1992) with right Jacobi scaling, for the nonsymmetric
  consistent-mass system, whose diagonal the mass matrix dominates.

Both stop on, and return, the unpreconditioned relative residual of the
returned iterate as their recurrence carries it, and return ``||b||_2``, its
scale. They update preallocated buffers in place, and raise ``CgError``
instead of returning an unconverged or non-finite iterate. That error is how
they report overflow: floating-point overflow and invalid operations inside
a solve emit no numpy warning.

Before the first residual, both zero every entry of ``b`` and of ``x0``
whose magnitude is below ``_NEGLIGIBLE = 1e-200`` times that vector's
largest magnitude. Such entries (a tumor far field near 1e-300) would put
the Krylov vectors in the subnormal range, where each arithmetic operation
is one to two orders of magnitude slower, and numpy has no flush-to-zero
switch. The drop perturbs ``b`` by at most ``sqrt(n) * 1e-200 * ||b||``,
far below any attainable tolerance, and the stop test keeps the true
``||b||``. The threshold is the smallest of those tried (1e-100, 1e-150 and
1e-200 ran equally fast): it perturbs least, and for a vector of order one
it still keeps every entry over 1e100 above the subnormal range, so its
products with normal coefficients stay normal. Inputs with no entry to
zero are solved bit for bit as given, and the inputs themselves are never
written.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse._sparsetools import csr_matvec

__all__ = ["CgError", "CgResult", "bicgstab_solve", "cg_solve", "csr_product"]

# Solver inputs are zeroed below this fraction of their vector's largest
# magnitude (see the module docstring).
_NEGLIGIBLE = 1e-200


@dataclass(frozen=True)
class CgResult:
    x: np.ndarray
    iterations: int
    residual: float  # relative 2-norm residual at exit
    b_norm: float  # ||b||_2, the scale of the stop test


class CgError(RuntimeError):
    """A Krylov solve failed: no convergence, a breakdown or a norm that is not finite."""

    def __init__(self, message: str, iterations: int, residual: float):
        super().__init__(message, iterations, residual)  # args rebuild the error when unpickled
        self.iterations = iterations
        self.residual = residual

    def __str__(self) -> str:
        return f"{self.args[0]} (relative residual {self.residual:.3e})"


def csr_product(A: sp.csr_matrix, x: np.ndarray) -> np.ndarray:
    """``A @ x`` for a CSR matrix ``A`` and a float vector ``x``, bit for bit, as a new array.

    The one check of the product's shapes: ``ValueError`` if ``x`` is not a
    vector of A's column count, which the kernel would read past the end of.
    """
    rows, cols = A.shape
    if x.shape != (cols,):
        raise ValueError(f"dimension mismatch: matrix shape {A.shape}, vector shape {x.shape}")
    y = np.zeros(rows)
    csr_matvec(rows, cols, A.indptr, A.indices, A.data, x, y)
    return y


def _zeroed(v: np.ndarray) -> np.ndarray:
    """``v`` with entries below ``_NEGLIGIBLE`` times its largest magnitude zeroed, as a new array.

    The one magnitude scan also gives the finiteness verdict: ``ValueError``
    if an entry is not finite, which makes the largest magnitude NaN or
    infinite. Every entry is multiplied by 1.0 or 0.0, so a kept entry keeps
    its value and a zeroed one its sign.
    """
    magnitude = np.abs(v)
    top = magnitude.max(initial=0.0)
    if not math.isfinite(top):
        raise ValueError("right-hand side and initial guess must be finite")
    return np.multiply(v, magnitude >= _NEGLIGIBLE * top, dtype=float)


def _start(A: sp.csr_matrix, b: np.ndarray, tol: float, maxit: int, x0: np.ndarray | None,
           name: str) -> tuple[CgResult | None, int, float, np.ndarray, np.ndarray]:
    """Validate a solve and set up its vectors.

    Returns (its result if it needs no iteration, maxit, ||b||_2, the first
    residual, a new first iterate), both formed from the ``_zeroed`` inputs.
    """
    n = A.shape[0]
    if A.shape != (n, n) or np.shape(b) != (n,):
        raise ValueError(f"dimension mismatch: matrix {A.shape}, rhs {np.shape(b)}")
    if x0 is not None and np.shape(x0) != (n,):
        raise ValueError(f"dimension mismatch: matrix {A.shape}, initial guess {np.shape(x0)}")
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    if maxit < 0:
        raise ValueError(f"maxit must be nonnegative, got {maxit}")
    b = np.asarray(b, dtype=float)
    r = _zeroed(b)
    x = np.zeros(n) if x0 is None else _zeroed(x0)  # the solvers write x
    b_norm = math.sqrt(float(b @ b))
    if b_norm == 0.0:
        return CgResult(x=np.zeros(n), iterations=0, residual=0.0, b_norm=0.0), 0, 0.0, b, b
    if not math.isfinite(b_norm):  # finite entries whose squares overflow
        raise CgError(f"{name} right-hand side norm is not finite at iteration 0", 0, math.nan)
    r -= csr_product(A, x)
    return None, maxit or 10 * n, b_norm, r, x


@np.errstate(over="ignore", invalid="ignore")
def cg_solve(
    A: sp.csr_matrix,
    b: np.ndarray,
    tol: float = 1e-10,
    maxit: int = 0,
    x0: np.ndarray | None = None,
) -> CgResult:
    """Conjugate gradient for a symmetric positive definite system.

    Stops when ||b - A x||_2 <= tol * ||b||_2; raises ``CgError`` if that
    does not happen within ``maxit`` iterations (0, the default, means
    10 n). Negligible entries of ``b`` and ``x0`` are zeroed first (see the
    module docstring). A zero right-hand side returns the zero vector, and
    an empty system returns an empty solution. Raises ``ValueError`` for a
    negative ``maxit``, a ``b`` or ``x0`` that is not a vector of length n,
    or a non-finite ``b`` or ``x0``, and ``CgError`` as soon as the norm of
    ``b`` or of the residual is not finite (entries whose squares overflow,
    or a non-finite matrix entry). Deterministic for fixed inputs.
    """
    done, maxit, b_norm, r, x = _start(A, b, tol, maxit, x0, "CG")
    if done is not None:
        return done

    rr = float(r @ r)
    p = scratch = None  # the first iteration makes them; a start that converged needs neither

    # The updates run in place in the order of x + alpha * p, r - alpha * Ap and r + beta * p.
    for it in range(maxit + 1):
        res = math.sqrt(rr)
        if res <= tol * b_norm:
            return CgResult(x=x, iterations=it, residual=res / b_norm, b_norm=b_norm)
        if not math.isfinite(res):  # NaN and infinity fail the test above
            raise CgError(f"CG residual is not finite at iteration {it}", it, res / b_norm)
        if it == maxit:
            break
        if p is None:
            p, scratch = r.copy(), np.empty(len(r))
        Ap = csr_product(A, p)
        alpha = rr / float(p @ Ap)
        np.add(x, np.multiply(alpha, p, out=scratch), out=x)
        np.subtract(r, np.multiply(alpha, Ap, out=Ap), out=r)
        rr_new = float(r @ r)
        np.add(r, np.multiply(rr_new / rr, p, out=p), out=p)
        rr = rr_new
    raise CgError(f"CG did not converge within {maxit} iterations", maxit, res / b_norm)


@np.errstate(over="ignore", invalid="ignore")
def bicgstab_solve(
    A: sp.csr_matrix,
    b: np.ndarray,
    tol: float = 1e-10,
    maxit: int = 0,
    x0: np.ndarray | None = None,
) -> CgResult:
    """BiCGSTAB with right Jacobi scaling for a general nonsingular system.

    Solves ``A D^-1 y = b`` with ``D = diag(A)`` and returns ``x = D^-1 y``;
    with right scaling the recurrence residual is ``b - A x`` itself. Stops
    when ||b - A x||_2 <= tol * ||b||_2, tested after each half step; an
    iteration is one full or final half step (two or one products with A).
    Raises ``CgError`` if that does not happen within ``maxit`` iterations
    (0, the default, means 10 n), on a breakdown (``rho = r0 . r``, ``r0 . v`` or
    ``omega`` exactly zero) and as soon as the norm of ``b`` or of a
    residual is not finite; it never restarts. Negligible entries of ``b``
    and ``x0`` are zeroed first (see the module docstring). A zero
    right-hand side returns the zero vector, an empty system an empty
    solution. Raises ``ValueError`` for a negative ``maxit``, a ``b`` or
    ``x0`` that is not a vector of length n, a non-finite ``b`` or ``x0`` or
    a zero diagonal entry. Deterministic for fixed inputs.
    """
    done, maxit, b_norm, r, x = _start(A, b, tol, maxit, x0, "BiCGSTAB")
    if done is not None:
        return done
    n = len(r)
    diag = A.diagonal()
    if not diag.all():
        raise ValueError("Jacobi scaling needs a nonzero diagonal")
    inv_diag = 1.0 / diag

    r0 = r.copy()
    p = np.zeros(n)
    v = np.zeros(n)
    p_hat = np.empty(n)
    s_hat = np.empty(n)
    scratch = np.empty(n)
    rho_old = alpha = omega = 1.0
    target = tol * b_norm

    # The updates run in place in the order of p = r + beta * (p - omega * v),
    # s = r - alpha * v, x = (x + alpha * p_hat) + omega * s_hat and
    # r = s - omega * t; s overwrites r. A NaN or infinite norm fails every
    # convergence test, so finiteness is tested after it.
    res = math.sqrt(float(r @ r))
    for it in range(maxit + 1):
        if res <= target:
            return CgResult(x=x, iterations=it, residual=res / b_norm, b_norm=b_norm)
        if not math.isfinite(res):
            raise CgError(f"BiCGSTAB residual is not finite at iteration {it}", it, res / b_norm)
        if it == maxit:
            break
        k = it + 1  # the iteration this pass makes, reported from here on
        rho = float(r0 @ r)
        if rho == 0.0:
            raise CgError(f"BiCGSTAB broke down (rho = 0) at iteration {k}", k, res / b_norm)
        beta = (rho / rho_old) * (alpha / omega)
        np.subtract(p, np.multiply(omega, v, out=scratch), out=p)
        np.add(r, np.multiply(beta, p, out=p), out=p)
        np.multiply(inv_diag, p, out=p_hat)
        v = csr_product(A, p_hat)
        r0v = float(r0 @ v)
        if r0v == 0.0:
            raise CgError(f"BiCGSTAB broke down (r0 . v = 0) at iteration {k}", k, res / b_norm)
        alpha = rho / r0v
        np.subtract(r, np.multiply(alpha, v, out=scratch), out=r)
        res = math.sqrt(float(r @ r))
        if res <= target:
            np.add(x, np.multiply(alpha, p_hat, out=scratch), out=x)
            return CgResult(x=x, iterations=k, residual=res / b_norm, b_norm=b_norm)
        if not math.isfinite(res):
            raise CgError(f"BiCGSTAB residual is not finite at iteration {k}", k, res / b_norm)
        np.multiply(inv_diag, r, out=s_hat)
        t = csr_product(A, s_hat)
        tt = float(t @ t)
        omega = float(t @ r) / tt if tt else 0.0
        if omega == 0.0:
            raise CgError(f"BiCGSTAB broke down (omega = 0) at iteration {k}", k, res / b_norm)
        np.add(x, np.multiply(alpha, p_hat, out=scratch), out=x)
        np.add(x, np.multiply(omega, s_hat, out=scratch), out=x)
        np.subtract(r, np.multiply(omega, t, out=t), out=r)
        res = math.sqrt(float(r @ r))
        rho_old = rho
    raise CgError(f"BiCGSTAB did not converge within {maxit} iterations", maxit, res / b_norm)
