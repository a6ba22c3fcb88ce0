"""Reference formulas the tests compare the package against.

Nothing in the package needs these; they state a property of the scheme in
its textbook form so a test can check the production code against it.
"""

import numpy as np
import scipy.sparse as sp

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
