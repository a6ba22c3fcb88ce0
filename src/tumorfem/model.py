"""Pointwise model nonlinearities: vascular fraction, reactions, nodal updates.

Three fields live on the mesh nodes: tumor density T, necrotic density N,
and vasculature Phi, all bounded by the carrying capacity K in the
continuous model. The vascular fraction P(Phi, T) modulates both the
diffusion speed and the proliferation/death balance. The time-split
reaction coefficients keep every negative term linearly semi-implicit and
every positive term explicit, which is what makes the nodal updates
preserve signs and bounds.

Everything here is a pure function of scalars and broadcasts over numpy
arrays, so the same code serves single-node oracles and whole-field
updates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ModelParams",
    "State",
    "vascular_fraction",
    "reactions",
    "imex_coefficients_T",
    "imex_reactions",
    "update_phi_node",
    "update_n_node",
    "gronwall_constants",
]


@dataclass(frozen=True)
class ModelParams:
    """Model coefficients.

    kappa1, kappa0   vasculature-modulated and baseline diffusivity (cm^2/day)
    rho              tumor proliferation rate (1/day)
    alpha            hypoxic death rate (cell/day)
    beta1, beta2     tumor->necrosis and vasculature->necrosis rates (1/day)
    gamma            vasculature proliferation rate (1/day)
    delta            vasculature destruction by tumor (1/day)
    K                carrying capacity (cell/cm^3)
    """

    kappa1: float
    kappa0: float
    rho: float
    alpha: float
    beta1: float
    beta2: float
    gamma: float
    delta: float
    K: float

    def __post_init__(self):
        for name in ("kappa1", "kappa0", "rho", "alpha", "beta1", "beta2", "gamma", "delta", "K"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be nonnegative")
        if self.K <= 0.0:
            raise ValueError("K must be positive")
        if self.kappa0 <= 0.0:
            raise ValueError("kappa0 must be positive (non-degenerate diffusion)")


@dataclass
class State:
    """Nodal fields at one time level."""

    T: np.ndarray
    N: np.ndarray
    Phi: np.ndarray
    step: int
    time: float

    def check_lengths(self, n_vertices: int) -> None:
        for name, v in (("T", self.T), ("N", self.N), ("Phi", self.Phi)):
            if v.shape != (n_vertices,):
                raise ValueError(f"field {name} has shape {v.shape}, expected ({n_vertices},)")


def _clip01K(v, K):
    return np.minimum(np.maximum(v, 0.0), K)


def vascular_fraction(phi, t, K):
    """Vascular volume fraction P in [0, 1] for arguments in [0, K].

    P = Phi+ / ((Phi+ + K)/2 + T+), with the positive parts additionally
    capped at K so off-range inputs cannot push P above 1. P vanishes
    without vasculature and reaches 1 at (Phi, T) = (K, 0).
    """
    phip = _clip01K(phi, K)
    tp = _clip01K(t, K)
    return phip / ((phip + K) / 2.0 + tp)


def _root_term(p_value):
    # 1 - P^2 can round to -eps when P is at its upper bound; clamp before the root.
    return np.sqrt(np.maximum(0.0, 1.0 - p_value * p_value))


def reactions(t, n, phi, p: ModelParams):
    """Continuous reaction triple (f1, f2, f3) at one state.

    f1 drives tumor growth/death, f2 accumulates necrosis, f3 evolves the
    vasculature. All transfer terms cancel in the sum, leaving only the two
    logistic production terms.
    """
    P = vascular_fraction(phi, t, p.K)
    root = _root_term(P)
    logistic = 1.0 - (t + n + phi) / p.K
    f1 = p.rho * t * P * logistic - p.alpha * t * root - p.beta1 * n * t
    f2 = p.alpha * t * root + p.beta1 * n * t + p.delta * t * phi + p.beta2 * n * phi
    f3 = (
        p.gamma * t * root * (phi / p.K) * logistic
        - p.delta * t * phi
        - p.beta2 * n * phi
    )
    return f1, f2, f3


def imex_coefficients_T(tk, nk, phik, p: ModelParams):
    """Split tumor reaction at one node: value = source - decay * T_next.

    ``source`` collects the explicit positive part rho * P * T_k; ``decay``
    collects every coefficient that multiplies the unknown T_next. Both are
    nonnegative for nonnegative inputs, which is what the bound proofs use.
    """
    P = vascular_fraction(phik, tk, p.K)
    root = _root_term(P)
    source = p.rho * P * tk
    decay = p.rho * P * (tk + nk + phik) / p.K + p.alpha * root + p.beta1 * nk
    return source, decay


def imex_reactions(tk, tk1, nk, phik, phik1, p: ModelParams):
    """The three split reaction values at given old/new nodal values.

    Evaluates the semi-implicit forms exactly as the steppers use them;
    with all five arguments supplied this is the algebraic identity behind
    the nodal updates, handy for cancellation and closed-form tests.
    """
    P = vascular_fraction(phik, tk, p.K)
    root = _root_term(P)
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


def update_phi_node(tk, tk1, nk, phik, dt, p: ModelParams):
    """Advance the vasculature at one node by solving its linear nodal equation.

    The equation (phi_next - phi_k)/dt = f3_split(phi_next) is linear in
    phi_next; the closed form below is its unique solution. The denominator
    is at least 1 for nonnegative inputs, and the update maps [0, K] into
    [0, K].
    """
    P = vascular_fraction(phik, tk, p.K)
    g = p.gamma * (tk1 / p.K) * _root_term(P)
    numer = phik * (1.0 + dt * g)
    denom = 1.0 + dt * (
        g * (phik + tk + nk) / p.K + p.delta * tk1 + p.beta2 * nk
    )
    return numer / denom


def update_n_node(tk, tk1, nk, phik, phik1, dt, p: ModelParams):
    """Advance necrosis at one node; explicit once T and Phi are updated.

    Every increment term is nonnegative for nonnegative inputs, so the
    update never decreases N.
    """
    P = vascular_fraction(phik, tk, p.K)
    root = _root_term(P)
    return nk + dt * (
        p.alpha * tk1 * root
        + p.beta1 * nk * tk1
        + p.delta * tk1 * phik1
        + p.beta2 * nk * phik1
    )


def gronwall_constants(p: ModelParams) -> tuple[float, float]:
    """(C1, C2) with dN/dt <= C1 N + C2 whenever T, Phi stay in [0, K].

    C1 = (beta1 + beta2) K bounds the N-proportional terms, C2 = alpha K +
    delta K^2 the rest; they feed the exponential ceiling
    N^k <= N^0 exp(C1 t) + C2 (exp(C1 t) - 1)/C1 used as a run diagnostic.
    """
    return (p.beta1 + p.beta2) * p.K, p.alpha * p.K + p.delta * p.K * p.K
