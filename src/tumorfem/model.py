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
updates. The split formulas take the vascular factors of the old state,
``P`` and ``root = sqrt(1 - P^2)`` from ``vascular_factors``, as
arguments, so a step evaluates them once per node for all three updates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np


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
        for f in fields(self):
            if not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite")
            if getattr(self, f.name) < 0.0:
                raise ValueError(f"{f.name} must be nonnegative")
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


def vascular_fraction(phi, t, K):
    """Vascular volume fraction P in [0, 1] for arguments in [0, K].

    P = Phi+ / ((Phi+ + K)/2 + T+), with the positive parts additionally
    capped at K so off-range inputs cannot push P above 1. P vanishes
    without vasculature and reaches 1 at (Phi, T) = (K, 0).
    """
    phip = np.clip(phi, 0.0, K)
    tp = np.clip(t, 0.0, K)
    return phip / ((phip + K) / 2.0 + tp)


def vascular_factors(phi, t, K):
    """(P, sqrt(1 - P^2)) at the given state, the two factors every reaction uses."""
    P = vascular_fraction(phi, t, K)
    # 1 - P^2 can round to -eps when P is at its upper bound; clamp before the root.
    return P, np.sqrt(np.maximum(0.0, 1.0 - P * P))


def reactions(t, n, phi, p: ModelParams):
    """Continuous reaction triple (f1, f2, f3) at one state.

    f1 drives tumor growth/death, f2 accumulates necrosis, f3 evolves the
    vasculature. All transfer terms cancel in the sum, leaving only the two
    logistic production terms.
    """
    P, root = vascular_factors(phi, t, p.K)
    logistic = 1.0 - (t + n + phi) / p.K
    # The four transfer terms, each evaluated once for both fields it moves between.
    hypoxic = p.alpha * t * root
    tumor_necrosis = p.beta1 * n * t
    destruction = p.delta * t * phi
    vessel_necrosis = p.beta2 * n * phi
    f1 = p.rho * t * P * logistic - hypoxic - tumor_necrosis
    f2 = hypoxic + tumor_necrosis + destruction + vessel_necrosis
    f3 = p.gamma * t * root * (phi / p.K) * logistic - destruction - vessel_necrosis
    return f1, f2, f3


def imex_coefficients_T(tk, nk, phik, P, root, p: ModelParams):
    """Split tumor reaction at one node: value = source - decay * T_next.

    ``P, root`` are ``vascular_factors(phik, tk, p.K)``. ``source`` collects
    the explicit positive part rho * P * T_k; ``decay`` collects every
    coefficient that multiplies the unknown T_next. Both are nonnegative for
    nonnegative inputs, which is what the bound proofs use.
    """
    rho_p = p.rho * P
    source = rho_p * tk
    decay = rho_p * (tk + nk + phik) / p.K + p.alpha * root + p.beta1 * nk
    return source, decay


def update_phi_node(tk, tk1, nk, phik, root, dt, p: ModelParams):
    """Advance the vasculature at one node by solving its linear nodal equation.

    ``root`` is the second of ``vascular_factors(phik, tk, p.K)``. The
    equation (phi_next - phi_k)/dt = f3_split(phi_next) is linear in
    phi_next; the closed form below is its unique solution. The denominator
    is at least 1 for nonnegative inputs, and the update maps [0, K] into
    [0, K].
    """
    g = p.gamma * (tk1 / p.K) * root
    numer = phik * (1.0 + dt * g)
    denom = 1.0 + dt * (
        g * (phik + tk + nk) / p.K + p.delta * tk1 + p.beta2 * nk
    )
    return numer / denom


def update_n_node(tk1, nk, phik1, root, dt, p: ModelParams):
    """Advance necrosis at one node; explicit once T and Phi are updated.

    ``root`` is the second of ``vascular_factors`` at the old state. Every
    increment term is nonnegative for nonnegative inputs, so the update
    never decreases N.
    """
    return nk + dt * (
        p.alpha * tk1 * root
        + p.beta1 * nk * tk1
        + p.delta * tk1 * phik1
        + p.beta2 * nk * phik1
    )
