from decimal import Decimal, localcontext

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from tumorfem.config import (
    ConstantProfile,
    GaussianProfile,
    InitialConditions,
    MeshSpec,
    RunConfig,
    SchemeVariant,
    SolverOptions,
)
from tumorfem.diagnostics import (
    classify_equilibrium,
    envelope_check_far,
    envelope_check_near_K,
    run_summary_lines,
    scalar_comparison_oracle,
)
from tumorfem.model import ModelParams, State, reactions
from tumorfem.scheme import run

PARAMS = ModelParams(
    kappa1=8e-5, kappa0=8e-5, rho=1.0, alpha=0.8, beta1=0.8, beta2=0.8,
    gamma=0.008, delta=0.8, K=1.0,
)


def quick_run(initial, tf=0.1, params=PARAMS, nx=8):
    cfg = RunConfig(
        mesh=MeshSpec(nx=nx, ny=nx, lx=1.0, ly=1.0),
        params=params,
        dt=1e-2,
        tf=tf,
        variant=SchemeVariant.IMEX_LUMPED,
        initial=initial,
        solver=SolverOptions(tol=1e-12),
    )
    return run(cfg)


def test_oracle_pure_decay():
    t = np.linspace(0.0, 3.0, 7)
    y = scalar_comparison_oracle(2.0, 0.0, 0.7, 1.3, t)
    assert np.allclose(y, 2.0 * np.exp(-1.3 * t), rtol=1e-15)


def test_oracle_equal_rates_form():
    t = np.linspace(0.0, 2.0, 9)
    y = scalar_comparison_oracle(1.0, 0.5, 0.8, 0.8, t)
    assert np.allclose(y, (1.0 + 0.5 * t) * np.exp(-0.8 * t), rtol=1e-15)


def test_oracle_matches_high_accuracy_integration():
    a, b, c, y0 = 0.4, 0.16, 0.8, 1.0
    t = np.linspace(0.0, 5.0, 21)
    sol = solve_ivp(
        lambda s, y: a * np.exp(-b * s) - c * y,
        (0.0, 5.0),
        [y0],
        t_eval=t,
        rtol=1e-12,
        atol=1e-14,
        method="DOP853",
    )
    y = scalar_comparison_oracle(y0, a, b, c, t)
    assert np.abs(y - sol.y[0]).max() <= 1e-10


def test_oracle_satisfies_its_ode():
    # fourth-order central difference of the closed form against the rhs
    a, b, c, y0 = 0.3, 0.5, 1.1, 0.7
    for t0 in np.linspace(0.1, 4.0, 12):
        h = 1e-3
        pts = scalar_comparison_oracle(
            y0, a, b, c, [t0 - 2 * h, t0 - h, t0 + h, t0 + 2 * h]
        )
        deriv = (-pts[3] + 8 * pts[2] - 8 * pts[1] + pts[0]) / (12 * h)
        y = scalar_comparison_oracle(y0, a, b, c, [t0])[0]
        assert abs(deriv - (a * np.exp(-b * t0) - c * y)) <= 1e-10


@pytest.mark.parametrize("sign", [1.0, -1.0], ids=["b-above-c", "b-below-c"])
def test_oracle_one_ulp_off_resonance_is_the_resonant_limit(sign):
    # The two-exponential quotient a (e^-bt - e^-ct) / (c - b) once lost about
    # a third of its value here to cancellation. The exact solution is within
    # a t^2 |c - b| / 2 of the resonant one, below 3e-16 relative on [0, 5].
    c = 0.76
    b = c * (1.0 + sign * 2.0**-52)
    assert b != c
    t = np.linspace(0.0, 5.0, 21)
    y = scalar_comparison_oracle(1.0, 0.5, b, c, t)
    limit = (1.0 + 0.5 * t) * np.exp(-c * t)
    assert (np.abs(y - limit) <= 1e-15 * limit).all()


def test_oracle_near_resonance_matches_an_80_digit_reference():
    # At |c - b| = 7.6e-13 the old quotient was off by 1.1e-4 relative.
    y0, a, b, c = 1.0, 0.5, 0.76 * (1.0 + 1e-12), 0.76
    t = np.linspace(0.0, 10.0, 41)
    y = scalar_comparison_oracle(y0, a, b, c, t)
    with localcontext() as ctx:
        ctx.prec = 80
        B, C = Decimal(b), Decimal(c)
        for ti, yi in zip(t, y):
            T = Decimal(float(ti))
            exact = (Decimal(y0) * (-C * T).exp()
                     + Decimal(a) / (C - B) * ((-B * T).exp() - (-C * T).exp()))
            assert abs(Decimal(float(yi)) - exact) <= Decimal(1e-15) * exact


def test_oracle_with_subnormal_rates_is_finite_and_quiet():
    # 1 / (c - b) overflows for these rates; the suite turns a RuntimeWarning
    # into an error. With both rates negligible the solution is y0 + a t.
    t = np.linspace(0.0, 1.0, 101)
    y = scalar_comparison_oracle(0.95, 0.5, 9.5e-311, 1.9e-310, t)
    assert np.isfinite(y).all()
    assert np.abs(y - (0.95 + 0.5 * t)).max() <= 1e-15 * 0.95


def test_envelope_far_not_applicable_cases():
    bad = ModelParams(
        kappa1=8e-5, kappa0=8e-5, rho=1.0, alpha=0.8, beta1=0.8, beta2=0.8,
        gamma=0.9, delta=0.1, K=1.0,
    )
    report = quick_run(
        InitialConditions(
            T=ConstantProfile(0.2), N=ConstantProfile(0.5), Phi=ConstantProfile(0.4)
        ),
        tf=0.02,
    )
    rep = envelope_check_far(report, bad, 0.5)
    assert not rep.applicable
    assert "delta" in rep.reason
    rep2 = envelope_check_far(report, PARAMS, 0.0)
    assert not rep2.applicable


def test_envelope_far_zero_vasculature_stays_zero():
    report = quick_run(
        InitialConditions(
            T=GaussianProfile(width=0.2), N=ConstantProfile(0.5), Phi=ConstantProfile(0.0)
        ),
        tf=0.05,
    )
    rep = envelope_check_far(report, PARAMS, 0.5)
    assert rep.applicable
    assert rep.holds
    # envelope for Phi is identically zero and the field stays on it
    assert np.allclose(rep.phi_margins, 0.0, atol=1e-15)


def test_envelope_far_uniform_fields_hold():
    report = quick_run(
        InitialConditions(
            T=ConstantProfile(0.8), N=ConstantProfile(0.4), Phi=ConstantProfile(0.5)
        ),
        tf=0.5,
    )
    rep = envelope_check_far(report, PARAMS, 0.4)
    assert rep.applicable
    assert rep.holds
    assert rep.worst_t_margin >= 0.0
    assert rep.worst_phi_margin >= 0.0


def test_envelope_near_K_requires_proximity():
    report = quick_run(
        InitialConditions(
            T=ConstantProfile(0.2), N=ConstantProfile(0.5), Phi=ConstantProfile(0.5)
        ),
        tf=0.02,
    )
    rep = envelope_check_near_K(report, PARAMS, 0.05)
    assert not rep.applicable
    assert "K - eps" in rep.reason


def test_envelope_near_K_synthetic_run_holds():
    # eps is taken with slack above K - min(N0): the hypothesis still holds
    # and the envelope rate sits below the slowest nodal decay rate, leaving
    # room for the one-rounding lag of the implicit update per step.
    report = quick_run(
        InitialConditions(
            T=GaussianProfile(width=0.15), N=ConstantProfile(0.95), Phi=ConstantProfile(0.5)
        ),
        tf=0.5,
    )
    rep = envelope_check_near_K(report, PARAMS, 0.08)
    assert rep.applicable
    assert rep.holds
    # margins are zero at t = 0 by construction, strictly positive after
    assert rep.t_margins[1:].min() > 0.0
    assert rep.phi_margins[1:].min() > 0.0


def test_envelope_near_K_at_eps_zero_uses_capacity_rates():
    # At eps = 0 the envelopes are pure exponentials with rates beta1 K and
    # beta2 K. A zero tumor field stays on its zero envelope exactly; the
    # recorded Phi margins must equal envelope minus observed maximum for
    # that rate (the implicit update trails the exponential by a rounding
    # per step, so only the formula, not the sign, is asserted there).
    report = quick_run(
        InitialConditions(
            T=ConstantProfile(0.0), N=ConstantProfile(1.0), Phi=ConstantProfile(0.5)
        ),
        tf=0.1,
    )
    rep = envelope_check_near_K(report, PARAMS, 0.0)
    assert rep.applicable
    assert np.allclose(rep.t_margins, 0.0, atol=1e-15)
    times = report.times()
    max_phi = np.array([d.max_phi for d in report.steps])
    expected = 0.5 * np.exp(-PARAMS.beta2 * PARAMS.K * times) - max_phi
    assert np.allclose(rep.phi_margins, expected, rtol=0, atol=1e-15)


@pytest.mark.parametrize("n0", [0.001, 0.3, 0.499])
def test_envelope_near_K_applies_at_the_summary_eps(n0):
    # The summary takes eps = K - min N0, and K - (K - n0) rounds above n0
    # for 0.001 and 0.3 (not for 0.499); the check must accept its own regime.
    report = quick_run(
        InitialConditions(
            T=ConstantProfile(0.2), N=ConstantProfile(n0), Phi=ConstantProfile(0.5)
        ),
        tf=0.02,
    )
    assert envelope_check_near_K(report, PARAMS, PARAMS.K - n0).applicable
    assert any(line.startswith("envelope[near-K]: holds=")
               for line in run_summary_lines(report))


def test_classify_equilibrium_labels():
    z = np.zeros(5)
    state = State(T=z, N=z, Phi=z, step=0, time=0.0)
    assert classify_equilibrium(state, PARAMS, 1e-8).label == "P1"
    state = State(T=z, N=np.full(5, 0.3), Phi=z, step=0, time=0.0)
    assert classify_equilibrium(state, PARAMS, 1e-8).label == "P2"
    state = State(T=z, N=z, Phi=np.full(5, 0.2), step=0, time=0.0)
    assert classify_equilibrium(state, PARAMS, 1e-8).label == "P3"
    state = State(T=np.full(5, 0.4), N=z, Phi=z, step=0, time=0.0)
    assert classify_equilibrium(state, PARAMS, 1e-8).label == "none"
    with pytest.raises(ValueError):
        classify_equilibrium(state, PARAMS, 0.0)


def test_classify_residuals_match_reactions_and_lipschitz_bound():
    rng = np.random.default_rng(2)
    tol = 1e-3
    T = rng.uniform(0.0, tol, 6)
    N = rng.uniform(0.0, tol, 6)
    Phi = rng.uniform(0.0, tol, 6)
    state = State(T=T, N=N, Phi=Phi, step=0, time=0.0)
    rep = classify_equilibrium(state, PARAMS, tol)
    assert rep.label == "P1"
    f1, f2, f3 = reactions(T, N, Phi, PARAMS)
    assert rep.residual_f1 == np.abs(f1).max()
    assert rep.residual_f2 == np.abs(f2).max()
    assert rep.residual_f3 == np.abs(f3).max()
    # crude Lipschitz bound of the reactions on [0, K]^3 for these parameters
    lip = 10.0
    assert rep.residual <= lip * tol
