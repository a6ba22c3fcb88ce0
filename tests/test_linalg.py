import math
import re

import numpy as np
import pytest
import scipy.sparse as sp

from tumorfem.fem import build_context
from tumorfem.linalg import CgError, bicgstab_solve, cg_solve
from tumorfem.mesh import build_structured_mesh

from oracles import textbook_bicgstab


def random_spd(n, rng, density=0.3):
    R = sp.random(n, n, density=density, random_state=np.random.RandomState(rng.integers(2**31)))
    A = (R.T @ R + sp.identity(n)).tocsr()
    A.sum_duplicates()
    A.sort_indices()
    return A


def random_dominant(n, rng, density=0.3):
    """Nonsymmetric, strictly row diagonally dominant, with entries of both signs."""
    R = sp.random(n, n, density=density, random_state=np.random.RandomState(rng.integers(2**31)),
                  data_rvs=lambda k: rng.uniform(-1.0, 1.0, k))
    dominance = np.abs(R).sum(axis=1).A1 + rng.uniform(0.1, 1.0, n)
    A = (R + sp.diags(dominance)).tocsr()
    A.sum_duplicates()
    A.sort_indices()
    return A


def test_spmv_identity_and_zero():
    x = np.array([3.0, -1.0, 2.5])
    I = sp.identity(3, format="csr")
    assert np.array_equal(I @ x, x)
    Z = sp.csr_matrix((3, 3))
    assert np.array_equal(Z @ x, np.zeros(3))


def test_spmv_hand_example():
    A = sp.csr_matrix(np.array([[2.0, 1.0], [1.0, 3.0]]))
    assert np.array_equal(A @ np.array([1.0, 1.0]), np.array([3.0, 4.0]))


def test_spmv_dimension_mismatch():
    A = sp.identity(3, format="csr")
    with pytest.raises(ValueError, match="dimension"):
        A @ np.ones(4)


def test_spmv_linearity():
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = int(rng.integers(2, 40))
        A = random_spd(n, rng)
        x = rng.standard_normal(n)
        y = rng.standard_normal(n)
        a, b = rng.standard_normal(2)
        lhs = A @ (a * x + b * y)
        rhs = a * (A @ x) + b * (A @ y)
        scale = max(1.0, np.abs(lhs).max())
        assert np.abs(lhs - rhs).max() <= 1e-12 * scale


def test_cg_identity_converges_immediately():
    rng = np.random.default_rng(0)
    b = rng.standard_normal(5)
    res = cg_solve(sp.identity(5, format="csr"), b)
    assert res.iterations <= 1
    assert np.allclose(res.x, b, rtol=0, atol=1e-12)


def test_cg_diagonal_example():
    A = sp.diags([2.0, 4.0]).tocsr()
    res = cg_solve(A, np.array([2.0, 8.0]))
    assert np.allclose(res.x, [1.0, 2.0], rtol=0, atol=1e-12)


def test_cg_zero_rhs_and_empty_system():
    A = sp.identity(4, format="csr")
    res = cg_solve(A, np.zeros(4))
    assert res.iterations == 0
    assert np.array_equal(res.x, np.zeros(4))
    empty = cg_solve(sp.csr_matrix((0, 0)), np.empty(0))
    assert empty.x.size == 0


def test_cg_random_spd_within_budget_and_posthoc_residual():
    rng = np.random.default_rng(5)
    for _ in range(10):
        n = int(rng.integers(3, 60))
        A = random_spd(n, rng)
        b = rng.standard_normal(n)
        res = cg_solve(A, b, tol=1e-10, maxit=10 * n)
        assert res.iterations <= 10 * n
        # independent post-check through the matrix-vector product
        assert np.linalg.norm(b - A @ res.x) <= 1e-10 * np.linalg.norm(b)


def test_cg_warm_start():
    rng = np.random.default_rng(9)
    A = random_spd(30, rng)
    b = rng.standard_normal(30)
    exact = cg_solve(A, b, tol=1e-12).x
    warm = cg_solve(A, b, tol=1e-12, x0=exact)
    assert warm.iterations == 0


def textbook_cg(A, b, tol, maxit, x0):
    """CG as first written: new vectors each iteration and a separate norm of r.

    Returns (x, iterations, relative residual, converged).
    """
    b_norm = float(np.linalg.norm(b))
    x = np.array(x0, dtype=float)
    r = b - A @ x
    p = r.copy()
    rr = float(r @ r)
    for it in range(maxit + 1):
        res = float(np.linalg.norm(r))
        if res <= tol * b_norm or it == maxit:
            return x, it, res / b_norm, res <= tol * b_norm
        Ap = A @ p
        alpha = rr / float(p @ Ap)
        x = x + alpha * p
        r = r - alpha * Ap
        rr_new = float(r @ r)
        p = r + (rr_new / rr) * p
        rr = rr_new


def tumor_system(nx, seed):
    """A lumped tumor system: stiffness with random coefficients plus a scaled lumped mass."""
    ctx = build_context(build_structured_mesh(nx, nx, 1.0, 1.0))
    rng = np.random.default_rng(seed)
    A = ctx.assemble(rng.uniform(1e-3, 1e-1, ctx.mesh.n_triangles))
    A.data[ctx.diagonal_slots] += ctx.lumped * rng.uniform(10.0, 100.0)
    return A


def consistent_tumor_system(nx, seed):
    """A consistent-mass tumor system: mass / dt, stiffness and mass times a nodal decay."""
    ctx = build_context(build_structured_mesh(nx, nx, 1.0, 1.0))
    rng = np.random.default_rng(seed)
    A = ctx.assemble(rng.uniform(1e-3, 1e-1, ctx.mesh.n_triangles))
    decay = rng.uniform(0.0, 2.0, ctx.mesh.n_vertices)
    return (ctx.mass.multiply(rng.uniform(10.0, 100.0)) + A + ctx.mass @ sp.diags(decay)).tocsr()


@pytest.mark.parametrize("variant", ["plain"])  # unpreconditioned CG, the only variant
def test_cg_equals_textbook_cg_bit_for_bit(variant):
    rng = np.random.default_rng(31)
    systems = [random_spd(60, rng), random_spd(200, rng, density=0.05), tumor_system(20, 4)]
    for A in systems:
        n = A.shape[0]
        b = rng.standard_normal(n)
        for x0, tol in ((np.zeros(n), 1e-12), (rng.standard_normal(n), 1e-6)):
            got = cg_solve(A, b, tol=tol, maxit=10 * n, x0=x0)
            x, iterations, residual, converged = textbook_cg(A, b, tol, 10 * n, x0)
            assert converged
            assert np.array_equal(got.x, x)
            assert (got.iterations, got.residual) == (iterations, residual)
        # The residual a failed solve reports is the one after maxit iterations.
        with pytest.raises(CgError) as err:
            cg_solve(A, b, tol=1e-300, maxit=3)
        _, iterations, residual, converged = textbook_cg(A, b, 1e-300, 3, np.zeros(n))
        assert not converged
        assert (err.value.iterations, err.value.residual) == (iterations, residual)


def test_cg_leaves_its_inputs_alone():
    rng = np.random.default_rng(32)
    A = random_spd(40, rng)
    b, x0 = rng.standard_normal(40), rng.standard_normal(40)
    b_copy, x0_copy, data_copy = b.copy(), x0.copy(), A.data.copy()
    res = cg_solve(A, b, tol=1e-12, x0=x0)
    assert not np.shares_memory(res.x, x0)
    assert np.array_equal(b, b_copy)
    assert np.array_equal(x0, x0_copy)
    assert np.array_equal(A.data, data_copy)


def test_cg_nonconvergence_raises_with_residual():
    rng = np.random.default_rng(1)
    A = random_spd(40, rng)
    b = rng.standard_normal(40)
    with pytest.raises(CgError) as err:
        cg_solve(A, b, tol=1e-14, maxit=1)
    assert err.value.iterations == 1
    assert err.value.residual > 0.0


def test_cg_rejects_bad_tol_and_shapes():
    A = sp.identity(3, format="csr")
    with pytest.raises(ValueError):
        cg_solve(A, np.ones(3), tol=0.0)
    with pytest.raises(ValueError, match="dimension"):
        cg_solve(A, np.ones(4))


def test_cg_rejects_nan_tol():
    # NaN fails every comparison, so the stop test could never be met.
    with pytest.raises(ValueError, match="tol"):
        cg_solve(sp.identity(3, format="csr"), np.ones(3), tol=np.nan)


@pytest.mark.parametrize("b, x0", [
    ([1.0, np.nan, 1.0], None),
    ([1.0, np.inf, 1.0], None),
    ([1.0, 1.0, 1.0], [0.0, np.nan, 0.0]),
], ids=["nan-rhs", "inf-rhs", "nan-x0"])
def test_cg_rejects_non_finite_input(b, x0):
    A = sp.identity(3, format="csr")
    with pytest.raises(ValueError, match="finite"):
        cg_solve(A, np.array(b), x0=None if x0 is None else np.array(x0))


def test_cg_deterministic():
    rng = np.random.default_rng(2)
    A = random_spd(25, rng)
    b = rng.standard_normal(25)
    r1 = cg_solve(A, b, tol=1e-11)
    r2 = cg_solve(A, b, tol=1e-11)
    assert np.array_equal(r1.x, r2.x)
    assert r1.iterations == r2.iterations
    assert r1.residual == r2.residual


def test_csr_canonical_and_symmetry_helpers():
    A = sp.csr_matrix(np.array([[2.0, 1.0], [1.0, 3.0]]))
    A.sort_indices()
    assert A.has_canonical_format
    assert np.abs((A - A.T).data).max(initial=0.0) == 0.0
    B = sp.csr_matrix(np.array([[2.0, 1.0], [0.5, 3.0]]))
    assert np.abs((B - B.T).data).max(initial=0.0) == pytest.approx(0.5)


def test_cg_fails_fast_on_a_non_finite_matrix_entry():
    # Without the finiteness test this ran all 10 n = 20,000 iterations;
    # 0 * NaN in the initial residual is NaN.
    A = sp.identity(2_000, format="lil")
    A[7, 7] = np.nan
    with pytest.raises(CgError, match="CG residual is not finite at iteration 0"):
        cg_solve(A.tocsr(), np.ones(2_000))


def test_bicgstab_equals_textbook_bicgstab_bit_for_bit():
    rng = np.random.default_rng(41)
    systems = [random_dominant(60, rng), random_dominant(200, rng, density=0.05),
               consistent_tumor_system(20, 4)]
    for A in systems:
        n = A.shape[0]
        assert abs(A - A.T).max() > 0.0
        b = rng.standard_normal(n)
        for x0, tol in ((np.zeros(n), 1e-12), (rng.standard_normal(n), 1e-6)):
            got = bicgstab_solve(A, b, tol=tol, maxit=10 * n, x0=x0)
            x, iterations, residual, outcome = textbook_bicgstab(A, b, tol, 10 * n, x0)
            assert outcome == "converged"
            assert np.array_equal(got.x, x)
            assert (got.iterations, got.residual) == (iterations, residual)
        # The residual a failed solve reports is the one after maxit iterations.
        with pytest.raises(CgError, match="BiCGSTAB did not converge within 3 iterations") as err:
            bicgstab_solve(A, b, tol=1e-300, maxit=3)
        _, iterations, residual, outcome = textbook_bicgstab(A, b, 1e-300, 3, np.zeros(n))
        assert outcome == "maxit"
        assert (err.value.iterations, err.value.residual) == (iterations, residual)


def test_bicgstab_solves_seeded_nonsymmetric_systems_to_tol():
    rng = np.random.default_rng(43)
    for _ in range(10):
        n = int(rng.integers(3, 120))
        A = random_dominant(n, rng, density=float(rng.uniform(0.05, 0.5)))
        b = rng.standard_normal(n)
        res = bicgstab_solve(A, b, tol=1e-10)
        assert res.iterations <= 10 * n
        assert res.residual <= 1e-10
        # independent post-check through the matrix-vector product
        assert np.linalg.norm(b - A @ res.x) <= 1e-10 * np.linalg.norm(b)


def test_bicgstab_warm_start_and_determinism():
    rng = np.random.default_rng(44)
    A = consistent_tumor_system(12, 2)
    b = rng.standard_normal(A.shape[0])
    exact = bicgstab_solve(A, b, tol=1e-12)
    again = bicgstab_solve(A, b, tol=1e-12)
    assert np.array_equal(exact.x, again.x)
    assert (exact.iterations, exact.residual) == (again.iterations, again.residual)
    assert bicgstab_solve(A, b, tol=1e-12, x0=exact.x).iterations == 0


def test_bicgstab_zero_rhs_and_empty_system():
    A = random_dominant(4, np.random.default_rng(45))
    res = bicgstab_solve(A, np.zeros(4), x0=np.ones(4))
    assert res.iterations == 0
    assert np.array_equal(res.x, np.zeros(4))
    empty = bicgstab_solve(sp.csr_matrix((0, 0)), np.empty(0))
    assert empty.x.size == 0
    assert empty.iterations == 0


@pytest.mark.parametrize("b, x0", [
    ([1.0, np.nan, 1.0], None),
    ([1.0, np.inf, 1.0], None),
    ([1.0, 1.0, 1.0], [0.0, np.nan, 0.0]),
], ids=["nan-rhs", "inf-rhs", "nan-x0"])
def test_bicgstab_rejects_non_finite_input(b, x0):
    A = sp.identity(3, format="csr")
    with pytest.raises(ValueError, match="finite"):
        bicgstab_solve(A, np.array(b), x0=None if x0 is None else np.array(x0))


def test_bicgstab_rejects_bad_tol_shapes_and_zero_diagonal():
    A = sp.identity(3, format="csr")
    for tol in (0.0, np.nan):
        with pytest.raises(ValueError, match="tol"):
            bicgstab_solve(A, np.ones(3), tol=tol)
    with pytest.raises(ValueError, match="dimension"):
        bicgstab_solve(A, np.ones(4))
    with pytest.raises(ValueError, match="nonzero diagonal"):
        bicgstab_solve(sp.csr_matrix(np.array([[0.0, 1.0], [1.0, 1.0]])), np.ones(2))


# Small integer systems (unit diagonal, so Jacobi scaling is the identity)
# on which one BiCGSTAB quantity is exactly zero.
BREAKDOWNS = {
    "r0 . v": ([[1.0, -1.0], [3.0, 1.0]], [2.0, -2.0]),
    "rho": ([[1.0, 2.0, -2.0], [-2.0, 1.0, 0.0], [-2.0, -1.0, 1.0]], [-2.0, -1.0, 0.0]),
    "omega": ([[1.0, 3.0], [-1.0, 1.0]], [-1.0, -1.0]),
}


@pytest.mark.parametrize("quantity", BREAKDOWNS)
def test_bicgstab_breakdown_raises_without_restart(quantity):
    A, b = (np.array(v) for v in BREAKDOWNS[quantity])
    A = sp.csr_matrix(A)
    assert np.linalg.det(A.toarray()) != 0.0
    with pytest.raises(CgError, match=rf"BiCGSTAB broke down \({quantity} = 0\)") as err:
        bicgstab_solve(A, b, tol=1e-12)
    _, iterations, residual, outcome = textbook_bicgstab(A, b, 1e-12, 10 * len(b), np.zeros(len(b)))
    assert outcome == quantity
    assert (err.value.iterations, err.value.residual) == (iterations, residual)


def test_bicgstab_fails_fast_on_a_non_finite_matrix_entry():
    A = sp.identity(2_000, format="lil")
    A[7, 3] = np.inf
    with pytest.raises(CgError, match="BiCGSTAB residual is not finite at iteration 0"):
        bicgstab_solve(A.tocsr(), np.ones(2_000))


def test_bicgstab_leaves_its_inputs_alone():
    rng = np.random.default_rng(46)
    A = random_dominant(40, rng)
    b, x0 = rng.standard_normal(40), rng.standard_normal(40)
    b_copy, x0_copy, data_copy = b.copy(), x0.copy(), A.data.copy()
    res = bicgstab_solve(A, b, tol=1e-12, x0=x0)
    assert not np.shares_memory(res.x, x0)
    assert np.array_equal(b, b_copy)
    assert np.array_equal(x0, x0_copy)
    assert np.array_equal(A.data, data_copy)


@pytest.mark.parametrize("solve, name", [(cg_solve, "CG"), (bicgstab_solve, "BiCGSTAB")],
                         ids=["cg", "bicgstab"])
def test_rhs_whose_norm_overflows_raises(solve, name):
    # Every entry is finite, but the stop test against tol * inf would pass at once.
    with pytest.raises(CgError, match=f"{name} right-hand side norm is not finite"):
        solve(sp.identity(4, format="csr"), np.full(4, 1e200))


@pytest.mark.parametrize("solve, matrix", [(cg_solve, random_spd), (bicgstab_solve, random_dominant)],
                         ids=["cg", "bicgstab"])
def test_rhs_given_as_a_list_solves_as_its_array(solve, matrix):
    A = matrix(6, np.random.default_rng(47))
    b = [1.0, -2.0, 0.5, 3, 0.0, 1e-3]
    got, want = solve(A, b, tol=1e-12), solve(A, np.array(b, dtype=float), tol=1e-12)
    assert np.array_equal(got.x, want.x)
    assert (got.iterations, got.residual) == (want.iterations, want.residual)


def spanning(n, rng):
    """Entries of random sign whose magnitudes fall from 1 to 1e-300 along the index."""
    return rng.choice([-1.0, 1.0], n) * np.logspace(0.0, -300.0, n)


def zeroed(v):
    """``v`` with the entries below 1e-200 times its largest magnitude zeroed, sign kept."""
    return np.where(np.abs(v) < 1e-200 * np.abs(v).max(), 0.0 * v, v)


@pytest.mark.parametrize("solve", [cg_solve, bicgstab_solve], ids=["cg", "bicgstab"])
def test_negligible_inputs_are_zeroed(solve):
    # A diagonal system with two eigenvalues, which both solvers solve to
    # rounding. Solved as given, its solution b / 1e12 would run into the
    # subnormal range (below about 2.2e-308).
    n = 121
    rng = np.random.default_rng(47)
    A = sp.diags(rng.choice([1e12, 2e12], n), format="csr")
    b, x0 = spanning(n, rng), spanning(n, rng)
    got = solve(A, b, tol=1e-12, x0=x0)
    want = solve(A, zeroed(b), tol=1e-12, x0=zeroed(x0))
    assert np.array_equal(got.x, want.x)
    assert np.array_equal(np.signbit(got.x), np.signbit(want.x))
    assert (got.iterations, got.residual) == (want.iterations, want.residual)
    assert not np.any((got.x != 0.0) & (np.abs(got.x) < np.finfo(float).tiny))


@pytest.mark.parametrize("solve", [cg_solve, bicgstab_solve], ids=["cg", "bicgstab"])
def test_negative_maxit_is_rejected(solve):
    with pytest.raises(ValueError, match="^maxit must be nonnegative, got -1$"):
        solve(sp.identity(3, format="csr"), np.ones(3), maxit=-1)


@pytest.mark.parametrize("shape", [(3, 1), (2,), (4,)], ids=["column", "short", "long"])
@pytest.mark.parametrize("solve", [cg_solve, bicgstab_solve], ids=["cg", "bicgstab"])
def test_initial_guess_of_the_wrong_shape_is_rejected(solve, shape):
    message = rf"^dimension mismatch: matrix \(3, 3\), initial guess {re.escape(str(shape))}$"
    with pytest.raises(ValueError, match=message):
        solve(sp.identity(3, format="csr"), np.ones(3), x0=np.ones(shape))


@pytest.mark.parametrize("solve", [cg_solve, bicgstab_solve], ids=["cg", "bicgstab"])
def test_rhs_that_is_not_a_vector_is_rejected(solve):
    with pytest.raises(ValueError, match=r"^dimension mismatch: matrix \(3, 3\), rhs \(3, 1\)$"):
        solve(sp.identity(3, format="csr"), np.ones((3, 1)))


@pytest.mark.parametrize("solve, matrix", [(cg_solve, random_spd), (bicgstab_solve, random_dominant)],
                         ids=["cg", "bicgstab"])
def test_result_carries_the_rhs_norm_bit_for_bit(solve, matrix):
    # The split lumped step scales its swept residual by this norm instead of forming its own.
    rng = np.random.default_rng(23)
    A = matrix(20, rng)
    b = rng.standard_normal(20)
    iterated = solve(A, b, tol=1e-12)
    at_start = solve(sp.identity(20, format="csr"), b, x0=b)
    assert iterated.iterations > 0 and at_start.iterations == 0
    for res in (iterated, at_start):
        assert res.b_norm == math.sqrt(float(b @ b))
    assert solve(A, np.zeros(20)).b_norm == 0.0
