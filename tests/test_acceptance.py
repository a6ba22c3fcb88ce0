"""Acceptance suite.

Each test prints one PASS line (run with ``-v -s`` to see them) and asserts
its criterion at the stated tolerance. The bound criteria are exact
comparisons with zero tolerance. One check is expected to fail and is
marked xfail with the measured number: the equilibrium reaction residual
cannot reach 1e-6 by t = 10, because at tumor-free nodes the vasculature
decays no faster than exp(-beta2 (max N0 + Phi0) t), leaving a residual
floor near 5e-6 for any admissible initial data; the same check passes by
t of roughly 12.
"""

import numpy as np
import pytest
from dataclasses import replace
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from tumorfem.cli import TABLE_BOUNDS, build_preset, main
from tumorfem.config import MeshSpec, SchemeVariant, SolverOptions
from tumorfem.diagnostics import (
    classify_equilibrium,
    envelope_check_far,
    envelope_check_near_K,
    scalar_comparison_oracle,
)
from tumorfem.fem import build_context
from tumorfem.mesh import (
    audit_angles, build_structured_mesh, triangulation_from_arrays, write_mesh,
)
from tumorfem.model import (
    ModelParams,
    State,
    update_n_node,
    update_phi_node,
    vascular_factors,
)
from tumorfem.scheme import (
    initial_state,
    run,
    step,
)

from oracles import (
    discrete_laplacian_apply, gronwall_constants, imex_reactions, l2_and_h1, unit_stiffness,
    write_config_file,
)
from test_assembly_equivalence import acute_mesh


def _pass(criterion: int, message: str) -> None:
    print(f"\nACCEPTANCE CRITERION {criterion}: PASS - {message}")


@pytest.fixture(scope="module")
def bounds_runs():
    imex_cfg, explicit_cfg = build_preset("bounds-comparison")
    return run(imex_cfg), run(explicit_cfg)


@pytest.fixture(scope="module")
def long_run():
    imex_cfg, _ = build_preset("bounds-comparison")
    return run(replace(imex_cfg, tf=10.0))


@pytest.fixture(scope="module")
def energy_runs():
    return {(c.variant, c.n_steps): run(c) for c in build_preset("energy-sweep")}


@pytest.fixture(scope="module")
def lumping_runs():
    lumped_cfg, consistent_cfg = build_preset("lumping-comparison")
    return run(lumped_cfg), run(consistent_cfg)


def test_criterion_1_discrete_maximum_principle(bounds_runs):
    """Bounds hold exactly at every node and step for the lumped splitting."""
    imex, _ = bounds_runs
    K = imex.config.params.K
    assert imex.config.dt == 1e-2
    assert imex.config.n_steps == 100
    budget = 10 * imex.mesh.n_vertices
    for d in imex.steps:
        assert d.min_t >= 0.0
        assert d.max_t <= K
        assert d.min_phi >= 0.0
        assert d.max_phi <= K
        assert d.min_n >= 0.0
        assert d.cg_iters <= budget
    _pass(1, "0 <= T, Phi <= K and N >= 0 at all 101 recorded levels, zero tolerance")


def test_criterion_2_explicit_scheme_violates_bounds(bounds_runs):
    """The explicit-reaction comparison scheme leaves [0, K] within 10 steps."""
    _, explicit = bounds_runs
    K = explicit.config.params.K
    early = explicit.steps[1:11]
    violated = [d.step for d in early if d.min_t < 0.0 or d.max_t > K]
    assert violated, "explicit scheme stayed inside the bounds for 10 steps"
    worst = min(d.min_t for d in early)
    _pass(2, f"first violation at step {violated[0]}, min T reaches {worst:.3e}")


def test_criteria_1_and_2_on_an_acute_mesh_file(tmp_path):
    """Both bounds runs on a strictly acute mesh that the command line reads from a file."""
    lattice = acute_mesh(40, 44)
    mesh = triangulation_from_arrays(lattice.nodes / 40.5, lattice.triangles)
    assert mesh.n_vertices == 1845 and audit_angles(mesh).strictly_acute
    write_mesh(mesh, tmp_path / "acute.mesh")
    rows = {}
    for cfg in build_preset("bounds-comparison"):
        cfg = replace(cfg, mesh=MeshSpec(path=str(tmp_path / "acute.mesh")))
        write_config_file(cfg, str(tmp_path / "run.cfg"))
        out = tmp_path / cfg.variant.value
        assert main(["run", str(tmp_path / "run.cfg"), "--output-dir", str(out)]) == 0
        rows[cfg.variant] = np.genfromtxt(out / "per_step.csv", delimiter=",", names=True)
    imex = rows[SchemeVariant.IMEX_LUMPED]
    for name in ("minT", "minN", "minPhi"):
        assert np.all(imex[name] >= 0.0)
    explicit_min_t = rows[SchemeVariant.EXPLICIT_LUMPED]["minT"]
    assert np.any(explicit_min_t < 0.0)
    _pass(1, f"acute mesh file, {mesh.n_vertices} nodes: imex-lumped min T = "
             f"{imex['minT'].min():.3e}; explicit-lumped min T = {explicit_min_t.min():.3e}, "
             f"below 0 on {np.count_nonzero(explicit_min_t < 0.0)} of {len(imex) - 1} steps")


def test_criterion_3_consistent_mass_violates_positivity(lumping_runs):
    """No lumping: negative tumor values appear; with lumping they never do."""
    lumped, consistent = lumping_runs
    assert consistent.config.variant is SchemeVariant.IMEX_CONSISTENT
    neg_steps = [d.step for d in consistent.steps if d.min_t < 0.0]
    assert neg_steps, "consistent-mass scheme unexpectedly stayed nonnegative"
    for d in lumped.steps:
        assert d.min_t >= 0.0
    worst = min(d.min_t for d in consistent.steps)
    _pass(3, f"consistent mass dips to {worst:.3e} (first at step {neg_steps[0]}); lumped never")


def test_criterion_4_necrosis_monotone_with_gronwall_ceiling():
    """Nodewise N monotonicity (exact) and the exponential ceiling, per node."""
    cfg, _ = build_preset("bounds-comparison")
    mesh = cfg.mesh.build()
    ctx = build_context(mesh)
    state = initial_state(cfg, mesh)
    n0 = state.N.copy()
    c1, c2 = gronwall_constants(cfg.params)
    assert c1 == pytest.approx((cfg.params.beta1 + cfg.params.beta2) * cfg.params.K)
    assert c2 == pytest.approx(cfg.params.alpha * cfg.params.K + cfg.params.delta * cfg.params.K**2)
    for k in range(1, cfg.n_steps + 1):
        prev_n = state.N
        state, _ = step(state, ctx, cfg.params, cfg.dt, cfg.solver,
                        variant=SchemeVariant.IMEX_LUMPED)
        assert np.all(state.N >= prev_n)
        growth = np.exp(c1 * k * cfg.dt)
        ceiling = n0 * growth + c2 * (growth - 1.0) / c1
        assert np.all(state.N <= ceiling)
    _pass(4, "N nondecreasing at every node/step and below the Gronwall ceiling")


def test_criterion_5_energy_bounded_under_dt_refinement(energy_runs):
    """Accumulated H1 energy is stable across the step-count sweep."""
    kfs = sorted({kf for (_, kf) in energy_runs})
    assert kfs == [10, 60, 110, 160, 210, 260, 310, 360, 410, 460, 510]
    imex = {kf: energy_runs[(SchemeVariant.IMEX_LUMPED, kf)].energy for kf in kfs}
    explicit = {kf: energy_runs[(SchemeVariant.EXPLICIT_LUMPED, kf)].energy for kf in kfs}
    values = np.array([imex[kf] for kf in kfs])
    spread = (values.max() - values.min()) / values.min()
    assert spread < 0.10
    assert values.max() <= 2.0 * imex[510]
    assert explicit[10] >= imex[10]
    _pass(
        5,
        f"IMEX energy spread {100 * spread:.4f}% across the sweep; "
        f"explicit - IMEX at K_f=10 is {explicit[10] - imex[10]:.3e}",
    )


def test_criterion_6_asymptotic_envelopes(bounds_runs):
    """Decay envelopes hold at every recorded step of the bounds run."""
    imex, _ = bounds_runs
    p = imex.config.params
    assert p.delta >= p.gamma / p.K
    n0_min = imex.steps[0].min_n
    assert n0_min > 0.0
    far = envelope_check_far(imex, p, n0_min)
    assert far.applicable
    assert far.holds
    # the same run sits in the close-to-capacity regime as well
    near = envelope_check_near_K(imex, p, eps=p.K - n0_min)
    assert near.applicable
    assert near.holds
    _pass(
        6,
        "envelopes hold at all steps "
        f"(worst margins: T {far.worst_t_margin:.3e}, Phi {far.worst_phi_margin:.3e})",
    )


def test_criterion_6_equilibrium_reached_by_t10(long_run):
    """The extended run lands on the necrosis-only equilibrium family."""
    rep = classify_equilibrium(long_run.final_state, long_run.config.params, tol=1e-4)
    assert rep.label == "P2"
    assert rep.max_n > 1e-4
    _pass(6, f"t=10 state classified P2 (maxT {rep.max_t:.2e}, maxPhi {rep.max_phi:.2e})")


@pytest.mark.xfail(
    reason=(
        "unattainable as stated: at tumor-free nodes the vasculature decays no "
        "faster than exp(-beta2 (N0 + Phi0) t) <= exp(-1.2 t), so by t = 10 the "
        "reaction residual floor is ~5e-6 > 1e-6 for any initial data within "
        "[0, K]; measured 6.7e-6 here, and the same check passes near t = 12"
    ),
    strict=False,
)
def test_criterion_6_equilibrium_residual_below_1e6(long_run):
    rep = classify_equilibrium(long_run.final_state, long_run.config.params, tol=1e-4)
    assert rep.residual <= 1e-6
    _pass(6, f"t=10 reaction residual {rep.residual:.3e} <= 1e-6")


def _offset_lattice(nx: int, ny: int, h: float):
    """Near-equilateral triangular lattice (rows offset by half a spacing)."""
    hy = h * np.sqrt(3.0) / 2.0
    nodes = []
    for j in range(ny + 1):
        x0 = 0.5 * h if j % 2 else 0.0
        for i in range(nx + 1):
            nodes.append((x0 + i * h, j * hy))
    tris = []
    row = nx + 1
    for j in range(ny):
        for i in range(nx):
            a = j * row + i
            b = a + 1
            c = a + row
            d = c + 1
            if j % 2 == 0:
                tris.append((a, b, c))
                tris.append((b, d, c))
            else:
                tris.append((a, b, d))
                tris.append((a, d, c))
    return np.array(nodes), np.array(tris)


def _perturbed_acute_mesh(rng, nx, ny, h):
    nodes, tris = _offset_lattice(nx, ny, h)
    for scale in (0.12, 0.08, 0.04):
        jitter = rng.uniform(-scale * h, scale * h, size=nodes.shape)
        mesh = triangulation_from_arrays(nodes + jitter, tris)
        if audit_angles(mesh).non_obtuse:
            return mesh
    raise AssertionError("could not build a perturbed non-obtuse mesh")


def _boundary_polygon_area(mesh) -> float:
    """Shoelace area of the boundary loop; independent of element areas."""
    counts = {}
    for tri in mesh.triangles:
        for k in range(3):
            e = (int(tri[k]), int(tri[(k + 1) % 3]))
            key = (min(e), max(e))
            counts.setdefault(key, []).append(e)
    succ = {}
    for key, occurrences in counts.items():
        if len(occurrences) == 1:
            a, b = occurrences[0]  # boundary edge, oriented with the element
            succ[a] = b
    start = next(iter(succ))
    loop = [start]
    while True:
        nxt = succ[loop[-1]]
        if nxt == start:
            break
        loop.append(nxt)
    pts = mesh.nodes[loop]
    x, y = pts[:, 0], pts[:, 1]
    return 0.5 * abs(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))


def test_criterion_7_fem_invariants_on_twenty_meshes():
    """Mass, stiffness, and discrete-Laplacian identities on varied meshes."""
    rng = np.random.default_rng(2024)
    meshes = []
    for _ in range(10):
        nx, ny = (int(v) for v in rng.integers(2, 11, size=2))
        lx, ly = rng.uniform(0.4, 2.2, size=2)
        meshes.append(build_structured_mesh(nx, ny, lx, ly))
    for _ in range(10):
        nx, ny = (int(v) for v in rng.integers(3, 9, size=2))
        meshes.append(_perturbed_acute_mesh(rng, nx, ny, float(rng.uniform(0.2, 1.0))))

    fields_checked = 0
    for mesh in meshes:
        assert audit_angles(mesh).non_obtuse
        ctx = build_context(mesh)
        lumped, mass = ctx.lumped, ctx.mass
        domain_area = _boundary_polygon_area(mesh)
        assert lumped.sum() == pytest.approx(domain_area, rel=1e-12)
        rows = np.asarray(mass.sum(axis=1)).ravel()
        assert np.abs(rows - lumped).max() <= 1e-12 * domain_area

        coeff = rng.uniform(0.0, 2.0, size=mesh.n_triangles)
        A = ctx.assemble(coeff)
        scale = max(1.0, np.abs(A.data).max())
        assert np.abs(np.asarray(A.sum(axis=1)).ravel()).max() <= 1e-12 * scale
        coo = A.tocoo()
        assert coo.data[coo.row != coo.col].max() <= 0.0

        unit = unit_stiffness(ctx)
        for _ in range(5):
            f = rng.standard_normal(mesh.n_vertices)
            lap = discrete_laplacian_apply(lumped, unit, f)
            lhs = float(lumped @ (lap * f))
            _, h1 = l2_and_h1(ctx, f)
            assert lhs == pytest.approx(h1 * h1, rel=1e-12)
            fields_checked += 1
    assert fields_checked == 100
    _pass(7, "mass/stiffness/Laplacian identities on 10 structured + 10 perturbed meshes")


def test_criterion_8_oracle_equivalences():
    """Closed forms agree with brute-force and high-accuracy alternatives."""
    # (a) spatially uniform run against the one-parameter decay recursion;
    # beta1 = 0 keeps the growing necrosis out of the tumor equation so the
    # recursion is exact at every step
    p = ModelParams(
        kappa1=8e-5, kappa0=8e-5, rho=1.0, alpha=0.8, beta1=0.0, beta2=0.8,
        gamma=0.008, delta=0.8, K=1.0,
    )
    mesh = build_structured_mesh(20, 20, 1.0, 1.0)
    ctx = build_context(mesh)
    n = mesh.n_vertices
    state = State(T=np.full(n, 1.0), N=np.zeros(n), Phi=np.zeros(n), step=0, time=0.0)
    solver = SolverOptions(tol=1e-14)
    expected = 1.0
    worst = 0.0
    for _ in range(100):
        state, _ = step(state, ctx, p, 1e-2, solver, variant=SchemeVariant.IMEX_LUMPED)
        expected /= 1.0 + p.alpha * 1e-2
        worst = max(worst, float(np.abs(state.T - expected).max()))
    assert worst <= 1e-10

    # (b) nodal closed-form updates against brute-force scalar root-finding
    pb = TABLE_BOUNDS
    rng = np.random.default_rng(99)
    worst_phi = worst_n = 0.0
    for _ in range(200):
        tk, tk1, nk, phik = rng.uniform(0.0, 1.0, size=4)
        dt = float(rng.uniform(1e-3, 0.2))
        _, root = vascular_factors(phik, tk, pb.K)
        phi_closed = update_phi_node(tk, tk1, nk, phik, root, dt, pb)
        phi_root = brentq(
            lambda x: (x - phik) / dt - imex_reactions(tk, tk1, nk, phik, x, pb)[2],
            -1.0, 2.0, xtol=1e-16, rtol=8.9e-16,
        )
        worst_phi = max(worst_phi, abs(phi_closed - phi_root))
        n_closed = update_n_node(tk1, nk, phi_closed, root, dt, pb)
        n_root = brentq(
            lambda x: (x - nk) / dt - imex_reactions(tk, tk1, nk, phik, phi_closed, pb)[1],
            -1.0, 5.0, xtol=1e-16, rtol=8.9e-16,
        )
        worst_n = max(worst_n, abs(n_closed - n_root))
    assert worst_phi <= 1e-12
    assert worst_n <= 1e-12

    # (c) the scalar comparison oracle against high-accuracy integration
    times = np.linspace(0.0, 5.0, 26)
    cases = [(1.0, 0.5, 0.4, 0.9), (0.7, 0.0, 0.3, 0.3), (0.2, 1.1, 0.8, 0.8)]
    worst_ode = 0.0
    for y0, a, b, c in cases:
        sol = solve_ivp(
            lambda s, y: a * np.exp(-b * s) - c * y,
            (0.0, 5.0), [y0], t_eval=times, rtol=1e-12, atol=1e-14, method="DOP853",
        )
        y = scalar_comparison_oracle(y0, a, b, c, times)
        worst_ode = max(worst_ode, float(np.abs(y - sol.y[0]).max()))
    assert worst_ode <= 1e-10
    _pass(
        8,
        f"uniform recursion {worst:.2e}, nodal root-find {max(worst_phi, worst_n):.2e}, "
        f"ODE oracle {worst_ode:.2e}",
    )
