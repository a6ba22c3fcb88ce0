import numpy as np
import pytest
import scipy.sparse as sp

from tumorfem.linalg import (
    CgError,
    cg_solve,
    value_symmetry_defect,
)


def random_spd(n, rng, density=0.3):
    R = sp.random(n, n, density=density, random_state=np.random.RandomState(rng.integers(2**31)))
    A = (R.T @ R + sp.identity(n)).tocsr()
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


def test_cg_warm_start_and_jacobi():
    rng = np.random.default_rng(9)
    A = random_spd(30, rng)
    b = rng.standard_normal(30)
    exact = cg_solve(A, b, tol=1e-12).x
    warm = cg_solve(A, b, tol=1e-12, x0=exact)
    assert warm.iterations == 0
    jac = cg_solve(A, b, tol=1e-12, jacobi=True)
    assert np.linalg.norm(b - A @ jac.x) <= 1e-12 * np.linalg.norm(b)


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
    assert value_symmetry_defect(A) == 0.0
    B = sp.csr_matrix(np.array([[2.0, 1.0], [0.5, 3.0]]))
    assert value_symmetry_defect(B) == pytest.approx(0.5)
