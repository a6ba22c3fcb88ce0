import numpy as np
import pytest
from scipy.optimize import brentq

from tumorfem.cli import TABLE_BOUNDS
from tumorfem.model import (
    ModelParams,
    imex_coefficients_T,
    reactions,
    update_n_node,
    update_phi_node,
    vascular_factors,
    vascular_fraction,
)

from oracles import gronwall_constants, imex_reactions


# The split formulas take the vascular factors of the old state; these
# helpers evaluate them at (phik, tk) as a step does.
def coefficients(tk, nk, phik, p):
    P, root = vascular_factors(phik, tk, p.K)
    return imex_coefficients_T(tk, nk, phik, P, root, p)


def phi_next(tk, tk1, nk, phik, dt, p):
    _, root = vascular_factors(phik, tk, p.K)
    return update_phi_node(tk, tk1, nk, phik, root, dt, p)


def n_next(tk, tk1, nk, phik, phik1, dt, p):
    _, root = vascular_factors(phik, tk, p.K)
    return update_n_node(tk1, nk, phik1, root, dt, p)


def test_params_validation():
    with pytest.raises(ValueError, match="K must be positive"):
        ModelParams(1, 1, 1, 1, 1, 1, 1, 1, 0.0)
    with pytest.raises(ValueError, match="kappa0"):
        ModelParams(1, 0.0, 1, 1, 1, 1, 1, 1, 1)
    with pytest.raises(ValueError, match="alpha"):
        ModelParams(1, 1, 1, -0.1, 1, 1, 1, 1, 1)


def test_params_reject_non_finite():
    for index in range(9):
        for value in (np.nan, np.inf):
            args = [1.0] * 9
            args[index] = value
            with pytest.raises(ValueError, match="must be finite"):
                ModelParams(*args)


def test_vascular_fraction_anchors():
    assert vascular_fraction(0.0, 0.3, 1.0) == 0.0
    assert vascular_fraction(1.0, 0.0, 1.0) == 1.0
    assert vascular_fraction(0.5, 0.5, 1.0) == pytest.approx(0.4, rel=0, abs=0)
    # scales with K
    assert vascular_fraction(1.5, 1.5, 3.0) == pytest.approx(0.4)


def test_vascular_fraction_bounds_property():
    rng = np.random.default_rng(12)
    for K in (1.0, 0.3, 7.0):
        phi = rng.uniform(0.0, K, size=500)
        t = rng.uniform(0.0, K, size=500)
        P = vascular_fraction(phi, t, K)
        assert P.min() >= 0.0
        assert P.max() <= 1.0


def test_vascular_factors_root_and_clamp():
    rng = np.random.default_rng(5)
    phi, t = rng.uniform(0.0, 1.0, size=(2, 200))
    P, root = vascular_factors(phi, t, 1.0)
    assert np.array_equal(P, vascular_fraction(phi, t, 1.0))
    assert np.array_equal(root, np.sqrt(np.maximum(0.0, 1.0 - P * P)))
    # P = 1 at (Phi, T) = (K, 0): the root is exactly zero, not the root of -eps
    assert vascular_factors(3.0, 0.0, 3.0) == (1.0, 0.0)


def test_vascular_fraction_off_range_robustness():
    # negative inputs hit the positive part; above-K inputs are capped
    assert vascular_fraction(-1.0, 0.5, 1.0) == 0.0
    assert vascular_fraction(2.0, -3.0, 1.0) == 1.0
    assert 0.0 <= vascular_fraction(5.0, 5.0, 1.0) <= 1.0


def test_reactions_zero_tumor_and_zero_necrosis():
    f1, f2, f3 = reactions(0.0, 0.0, 0.7, TABLE_BOUNDS)
    assert (f1, f2, f3) == (0.0, 0.0, 0.0)


def test_reactions_sum_vanishes_at_capacity():
    rng = np.random.default_rng(3)
    for _ in range(50):
        t = rng.uniform(0, 1)
        n = rng.uniform(0, 1 - t)
        phi = 1.0 - t - n
        f1, f2, f3 = reactions(t, n, phi, TABLE_BOUNDS)
        assert abs(f1 + f2 + f3) <= 1e-15


def test_reactions_frozen_point_oracles():
    # values computed with an independent 40-digit transcription of the formulas
    f1, f2, f3 = reactions(0.5, 0.0, 0.5, TABLE_BOUNDS)
    assert f1 == pytest.approx(-0.3666060555964672, rel=1e-15)
    assert f2 == pytest.approx(0.5666060555964672, rel=1e-15)
    assert f3 == pytest.approx(-0.2, rel=1e-15)
    f1, f2, f3 = reactions(0.3, 0.2, 0.4, TABLE_BOUNDS)
    assert f1 == pytest.approx(-0.2559636333578803, rel=1e-14)
    assert f2 == pytest.approx(0.42796363335788035, rel=1e-14)
    assert f3 == pytest.approx(-0.15991201454665685, rel=1e-14)


def test_reactions_equal_the_term_by_term_formulas():
    # Each transfer term is evaluated once in reactions(); written out in
    # full, every field must come out the same bit for bit.
    rng = np.random.default_rng(7)
    t, n, phi = rng.uniform(0.0, 1.2, size=(3, 500))
    p = TABLE_BOUNDS
    P = vascular_fraction(phi, t, p.K)
    root = np.sqrt(np.maximum(0.0, 1.0 - P * P))
    logistic = 1.0 - (t + n + phi) / p.K
    f1 = p.rho * t * P * logistic - p.alpha * t * root - p.beta1 * n * t
    f2 = p.alpha * t * root + p.beta1 * n * t + p.delta * t * phi + p.beta2 * n * phi
    f3 = p.gamma * t * root * (phi / p.K) * logistic - p.delta * t * phi - p.beta2 * n * phi
    for got, expected in zip(reactions(t, n, phi, p), (f1, f2, f3), strict=True):
        assert np.array_equal(got, expected)


def test_continuous_cancellation_identity():
    rng = np.random.default_rng(6)
    p = TABLE_BOUNDS
    for _ in range(200):
        t, n, phi = rng.uniform(0.0, 1.2, size=3)
        f1, f2, f3 = reactions(t, n, phi, p)
        P = vascular_fraction(phi, t, p.K)
        root = np.sqrt(max(0.0, 1.0 - P * P))
        logistic = 1.0 - (t + n + phi) / p.K
        expected = logistic * (p.rho * t * P + (p.gamma / p.K) * t * root * phi)
        assert f1 + f2 + f3 == pytest.approx(expected, rel=1e-12, abs=1e-15)


def test_imex_coefficients_anchors():
    src, dec = coefficients(0.0, 0.0, 0.0, TABLE_BOUNDS)
    assert src == 0.0
    assert dec == pytest.approx(TABLE_BOUNDS.alpha)
    # no vasculature: P = 0 regardless of tumor level
    src, dec = coefficients(1.0, 0.0, 0.0, TABLE_BOUNDS)
    assert src == 0.0
    assert dec == pytest.approx(TABLE_BOUNDS.alpha)


def test_imex_coefficients_nonnegative_property():
    rng = np.random.default_rng(10)
    t, n, phi = rng.uniform(0.0, 1.0, size=(3, 300))
    src, dec = coefficients(t, n, phi, TABLE_BOUNDS)
    assert src.min() >= 0.0
    assert dec.min() >= 0.0


def test_split_reactions_cancel_without_logistic_terms():
    p = ModelParams(
        kappa1=1e-4, kappa0=1e-4, rho=0.0, alpha=0.37, beta1=0.21, beta2=0.55,
        gamma=0.0, delta=0.8, K=1.0,
    )
    rng = np.random.default_rng(14)
    for _ in range(100):
        tk, tk1, nk, phik, phik1 = rng.uniform(0.0, 1.0, size=5)
        f1, f2, f3 = imex_reactions(tk, tk1, nk, phik, phik1, p)
        # zero in exact arithmetic; each transfer pair cancels up to one rounding
        assert abs(f1 + f2 + f3) <= 1e-15


def test_split_reactions_sum_is_logistic_only():
    p = TABLE_BOUNDS
    rng = np.random.default_rng(15)
    for _ in range(200):
        tk, tk1, nk, phik, phik1 = rng.uniform(0.0, 1.0, size=5)
        f1, f2, f3 = imex_reactions(tk, tk1, nk, phik, phik1, p)
        P = vascular_fraction(phik, tk, p.K)
        root = np.sqrt(max(0.0, 1.0 - P * P))
        bracket_t = tk * (1.0 - tk1 / p.K) - tk1 * (nk + phik) / p.K
        bracket_phi = phik * (1.0 - phik1 / p.K) - phik1 * (tk + nk) / p.K
        expected = p.rho * P * bracket_t + p.gamma * (tk1 / p.K) * root * bracket_phi
        assert f1 + f2 + f3 == pytest.approx(expected, rel=1e-12, abs=1e-15)


def test_split_f1_matches_source_decay_form():
    p = TABLE_BOUNDS
    rng = np.random.default_rng(16)
    for _ in range(100):
        tk, tk1, nk, phik = rng.uniform(0.0, 1.0, size=4)
        f1, _, _ = imex_reactions(tk, tk1, nk, phik, 0.0, p)
        src, dec = coefficients(tk, nk, phik, p)
        assert f1 == pytest.approx(src - dec * tk1, rel=1e-13, abs=1e-16)


def test_update_phi_frozen_cases():
    p0 = ModelParams(
        kappa1=1e-4, kappa0=1e-4, rho=1.0, alpha=0.8, beta1=0.8, beta2=0.0,
        gamma=0.0, delta=0.0, K=1.0,
    )
    assert phi_next(0.3, 0.2, 0.1, 0.5, 0.1, p0) == 0.5
    p1 = ModelParams(
        kappa1=1e-4, kappa0=1e-4, rho=1.0, alpha=0.8, beta1=0.8, beta2=0.0,
        gamma=0.0, delta=1.0, K=1.0,
    )
    # delta * t_next = 1 with dt = 0.1 shrinks phi by the factor 1/1.1
    assert phi_next(0.3, 1.0, 0.0, 0.5, 0.1, p1) == pytest.approx(0.5 / 1.1, rel=1e-15)


def test_update_phi_preserves_bounds():
    rng = np.random.default_rng(18)
    p = TABLE_BOUNDS
    for _ in range(300):
        tk, tk1, nk, phik = rng.uniform(0.0, 1.0, size=4)
        dt = rng.uniform(1e-4, 0.5)
        phik1 = phi_next(tk, tk1, nk, phik, dt, p)
        assert 0.0 <= phik1 <= p.K


def test_update_phi_solves_its_nodal_equation():
    rng = np.random.default_rng(19)
    p = TABLE_BOUNDS
    for _ in range(100):
        tk, tk1, nk, phik = rng.uniform(0.0, 1.0, size=4)
        dt = rng.uniform(1e-3, 0.2)
        phik1 = phi_next(tk, tk1, nk, phik, dt, p)
        _, _, f3 = imex_reactions(tk, tk1, nk, phik, phik1, p)
        assert (phik1 - phik) / dt == pytest.approx(f3, rel=1e-12, abs=1e-14)


def test_update_phi_matches_root_find():
    p = TABLE_BOUNDS
    rng = np.random.default_rng(20)
    for _ in range(50):
        tk, tk1, nk, phik = rng.uniform(0.0, 1.0, size=4)
        dt = rng.uniform(1e-3, 0.2)

        def residual(x):
            _, _, f3 = imex_reactions(tk, tk1, nk, phik, x, p)
            return (x - phik) / dt - f3

        bracket = brentq(residual, -1.0, 2.0, xtol=1e-15, rtol=1e-15)
        assert phi_next(tk, tk1, nk, phik, dt, p) == pytest.approx(
            bracket, rel=1e-12, abs=1e-12
        )


def test_update_n_frozen_cases():
    p_zero = ModelParams(
        kappa1=1e-4, kappa0=1e-4, rho=1.0, alpha=0.0, beta1=0.0, beta2=0.0,
        gamma=0.0, delta=0.0, K=1.0,
    )
    assert n_next(0.4, 0.3, 0.25, 0.1, 0.2, 0.05, p_zero) == 0.25
    assert n_next(0.4, 0.0, 0.25, 0.1, 0.0, 0.05, TABLE_BOUNDS) == pytest.approx(0.25)
    p_alpha = ModelParams(
        kappa1=1e-4, kappa0=1e-4, rho=1.0, alpha=1.0, beta1=0.0, beta2=0.0,
        gamma=0.0, delta=0.0, K=1.0,
    )
    # P = 0 without vasculature, so the alpha term alone contributes dt * t_next
    assert n_next(0.0, 1.0, 0.0, 0.0, 0.0, 0.01, p_alpha) == pytest.approx(0.01)


def test_update_n_monotone():
    rng = np.random.default_rng(22)
    p = TABLE_BOUNDS
    for _ in range(300):
        tk, tk1, nk, phik, phik1 = rng.uniform(0.0, 1.0, size=5)
        dt = rng.uniform(1e-4, 0.5)
        assert n_next(tk, tk1, nk, phik, phik1, dt, p) >= nk


def test_gronwall_constants():
    c1, c2 = gronwall_constants(TABLE_BOUNDS)
    assert c1 == pytest.approx((0.8 + 0.8) * 1.0)
    assert c2 == pytest.approx(0.8 * 1.0 + 0.8 * 1.0)
