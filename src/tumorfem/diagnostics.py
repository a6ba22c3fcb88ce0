"""Post-hoc verification of analytic decay statements, and the run summary.

The continuous model admits exponential envelopes for the tumor and
vasculature maxima under parameter hypotheses (vasculature destruction at
least proliferation-over-capacity; necrosis bounded below, or close to
capacity). These checks evaluate those envelopes at the recorded step
times and compare one-sidedly against the recorded field maxima: they
assert that the discrete run stays below the analytic bound, never that
the bound is tight. Each check refuses to assert when its hypotheses fail
and reports itself "not applicable" instead. ``run_summary_lines``
composes every line of a run's summary file.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import ModelParams, State, reactions
from .scheme import RunReport

__all__ = [
    "EnvelopeReport",
    "EquilibriumReport",
    "envelope_check_far",
    "envelope_check_near_K",
    "classify_equilibrium",
    "run_summary_lines",
    "scalar_comparison_oracle",
]

# The max-norm level below which run_summary_lines counts a field as extinct.
_EQUILIBRIUM_TOL = 1e-4


@dataclass(frozen=True)
class EnvelopeReport:
    kind: str
    applicable: bool
    reason: str
    holds: bool
    # The regime parameter: the necrosis floor (far-from-K) or eps (near-K).
    parameter: float
    # Exponential decay rate of the vasculature envelope.
    phi_rate: float
    # Signed margins envelope - observed max, per recorded step (empty when
    # not applicable); nonnegative margins mean the envelope holds.
    t_margins: np.ndarray
    phi_margins: np.ndarray

    @property
    def worst_t_margin(self) -> float:
        return float(self.t_margins.min()) if self.t_margins.size else float("nan")

    @property
    def worst_phi_margin(self) -> float:
        return float(self.phi_margins.min()) if self.phi_margins.size else float("nan")


@dataclass(frozen=True)
class EquilibriumReport:
    label: str  # "P1" | "P2" | "P3" | "none"
    max_t: float
    max_n: float
    max_phi: float
    residual_f1: float
    residual_f2: float
    residual_f3: float

    @property
    def residual(self) -> float:
        return max(self.residual_f1, self.residual_f2, self.residual_f3)


def _compare(report: RunReport, kind: str, parameter: float, phi_rate: float,
             t_env: np.ndarray, phi_env: np.ndarray) -> EnvelopeReport:
    """The applicable report for envelopes sampled at the recorded step times."""
    t_margins = t_env - np.array([d.max_t for d in report.steps])
    phi_margins = phi_env - np.array([d.max_phi for d in report.steps])
    holds = bool(t_margins.min() >= 0.0 and phi_margins.min() >= 0.0)
    return EnvelopeReport(kind, True, "", holds, parameter, phi_rate, t_margins, phi_margins)


def envelope_check_far(report: RunReport, p: ModelParams, n0_min: float) -> EnvelopeReport:
    """Decay envelopes valid when necrosis starts positive everywhere.

    Requires delta >= gamma / K and n0_min > 0. The vasculature maximum is
    checked against |Phi0| exp(-beta2 n0_min t); the tumor maximum against
    the solution of the scalar comparison equation with forcing from the
    vasculature envelope, ``scalar_comparison_oracle``.
    """
    if p.delta < p.gamma / p.K:
        reason = "requires delta >= gamma / K"
    elif n0_min <= 0.0:
        reason = "requires a positive lower bound on initial necrosis"
    else:
        times = report.times()
        first = report.steps[0]
        rate_phi = p.beta2 * n0_min
        t_env = scalar_comparison_oracle(
            first.max_t, p.rho * first.max_phi, rate_phi, p.beta1 * n0_min, times
        )
        phi_env = first.max_phi * np.exp(-rate_phi * times)
        return _compare(report, "far-from-K", n0_min, rate_phi, t_env, phi_env)
    return EnvelopeReport("far-from-K", False, reason, False, n0_min, 0.0,
                          np.empty(0), np.empty(0))


@np.errstate(over="ignore", invalid="ignore")
def envelope_check_near_K(report: RunReport, p: ModelParams, eps: float) -> EnvelopeReport:
    """Decay envelopes valid when necrosis starts within eps of capacity.

    Requires K - min N0 <= eps, tested in that form so that the summary's
    eps = K - min N0 always applies. Pure exponentials with rates
    beta1 (K - eps) - rho eps / K for T and beta2 (K - eps) - gamma eps / K
    for Phi; at eps = 0 these reduce to rates beta1 K and beta2 K. A
    negative rate can overflow an envelope to +inf, a vacuous bound.
    """
    first = report.steps[0]
    rate_t = p.beta1 * (p.K - eps) - p.rho * eps / p.K
    rate_phi = p.beta2 * (p.K - eps) - p.gamma * eps / p.K
    if p.K - first.min_n > eps:
        reason = f"requires initial necrosis >= K - eps everywhere (min N0 = {first.min_n:.6g})"
        return EnvelopeReport("near-K", False, reason, False, eps, rate_phi,
                              np.empty(0), np.empty(0))
    times = report.times()
    return _compare(report, "near-K", eps, rate_phi, first.max_t * np.exp(-rate_t * times),
                    first.max_phi * np.exp(-rate_phi * times))


@np.errstate(over="ignore", invalid="ignore")
def classify_equilibrium(final: State, p: ModelParams, tol: float) -> EquilibriumReport:
    """Label the final state by which fields sit below ``tol`` in max norm.

    P1: all three vanish. P2: tumor and vasculature vanish, necrosis
    persists. P3: tumor and necrosis vanish, vasculature persists (the
    unstable family). Anything else is "none". The reaction values at the
    final state are reported as residuals, inf or nan where they overflow.
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    max_t = float(np.abs(final.T).max())
    max_n = float(np.abs(final.N).max())
    max_phi = float(np.abs(final.Phi).max())
    f1, f2, f3 = reactions(final.T, final.N, final.Phi, p)
    if max_t <= tol and max_n <= tol and max_phi <= tol:
        label = "P1"
    elif max_t <= tol and max_phi <= tol:
        label = "P2"
    elif max_t <= tol and max_n <= tol:
        label = "P3"
    else:
        label = "none"
    return EquilibriumReport(
        label=label,
        max_t=max_t,
        max_n=max_n,
        max_phi=max_phi,
        residual_f1=float(np.abs(f1).max()),
        residual_f2=float(np.abs(f2).max()),
        residual_f3=float(np.abs(f3).max()),
    )


def run_summary_lines(report: RunReport) -> list[str]:
    """Every line of a run's summary file: the run header, then report-mode diagnostics.

    Evaluates both envelope regimes with parameters taken from the run's own
    initial data and classifies the final state. Nothing here fails a run;
    results are recorded so user-supplied configs can be inspected without
    asserting bounds the parameters may not satisfy.
    """
    cfg = report.config
    p = cfg.params
    n0_min = report.steps[0].min_n
    lines = [
        f"label={cfg.label}",
        f"variant={cfg.variant.value}",
        f"steps={cfg.n_steps}",
        f"energy={report.energy:.17g}",
        f"non_obtuse_mesh={report.mesh.angles.non_obtuse}",
    ]
    for rep in (
        envelope_check_far(report, p, n0_min),
        envelope_check_near_K(report, p, max(0.0, p.K - n0_min)),
    ):
        if not rep.applicable:
            lines.append(f"envelope[{rep.kind}]: not applicable ({rep.reason})")
        else:
            lines.append(
                f"envelope[{rep.kind}]: holds={rep.holds} "
                f"parameter={rep.parameter:.9g} phi_rate={rep.phi_rate:.9g} "
                f"worst_T_margin={rep.worst_t_margin:.9g} "
                f"worst_Phi_margin={rep.worst_phi_margin:.9g}"
            )
    eq = classify_equilibrium(report.final_state, p, _EQUILIBRIUM_TOL)
    lines.append(
        f"equilibrium: label={eq.label} tol={_EQUILIBRIUM_TOL:.3g} "
        f"maxT={eq.max_t:.9g} maxN={eq.max_n:.9g} maxPhi={eq.max_phi:.9g} "
        f"residual={eq.residual:.9g}"
    )
    return lines


def scalar_comparison_oracle(y0: float, a: float, b: float, c: float, times) -> np.ndarray:
    """Closed-form solution of y' = a exp(-b t) - c y, y(0) = y0, sampled at ``times``.

    Used as a supersolution for the tumor maximum. The forced part
    ``a (exp(-b t) - exp(-c t)) / (c - b)`` is evaluated as
    ``a t exp(-min(b, c) t) expm1(x) / x`` with ``x = -|c - b| t``, which
    keeps its digits near resonance and is the resonant ``a t exp(-c t)``
    where ``x`` is 0.
    """
    t = np.asarray(times, dtype=float)
    x = -abs(c - b) * t
    ratio = np.divide(np.expm1(x), x, out=np.ones_like(x), where=x != 0.0)
    return y0 * np.exp(-c * t) + a * (t * np.exp(-min(b, c) * t) * ratio)
