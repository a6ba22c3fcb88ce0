import functools
import pickle
from dataclasses import fields, replace

import numpy as np
import pytest
import scipy.sparse as sp

from tumorfem import scheme
from tumorfem.cli import build_preset
from tumorfem.config import (
    ConstantProfile,
    GaussianProfile,
    InitialConditions,
    MeshSpec,
    OutputOptions,
    RunConfig,
    SchemeVariant,
    SolverOptions,
)
from tumorfem.fem import build_context, norms
from tumorfem.linalg import CgError, bicgstab_solve, cg_solve
from tumorfem.mesh import audit_angles, build_structured_mesh, triangulation_from_arrays
from tumorfem.model import ModelParams, State
from tumorfem.scheme import (
    SchemeError,
    element_diffusivity,
    initial_state,
    run,
    step,
)

from oracles import peak_bytes
from test_assembly_equivalence import acute_mesh

PARAMS = ModelParams(
    kappa1=8e-5, kappa0=8e-5, rho=1.0, alpha=0.8, beta1=0.8, beta2=0.8,
    gamma=0.008, delta=0.8, K=1.0,
)
NO_REACTIONS = ModelParams(
    kappa1=8e-4, kappa0=8e-4, rho=0.0, alpha=0.0, beta1=0.0, beta2=0.0,
    gamma=0.0, delta=0.0, K=1.0,
)
imex_lumped = functools.partial(step, variant=SchemeVariant.IMEX_LUMPED)
explicit_lumped = functools.partial(step, variant=SchemeVariant.EXPLICIT_LUMPED)
imex_consistent = functools.partial(step, variant=SchemeVariant.IMEX_CONSISTENT)


def small_config(variant=SchemeVariant.IMEX_LUMPED, nx=6, dt=1e-2, tf=0.05, **kw):
    defaults = dict(
        mesh=MeshSpec(nx=nx, ny=nx, lx=1.0, ly=1.0),
        params=PARAMS,
        dt=dt,
        tf=tf,
        variant=variant,
        initial=InitialConditions(
            T=GaussianProfile(base=0.0, amplitude=1.0, center=(0.5, 0.5), width=0.25),
            N=GaussianProfile(base=0.3, amplitude=0.5, center=(0.5, 0.5), width=0.25),
            Phi=ConstantProfile(value=0.5),
        ),
        solver=SolverOptions(tol=1e-12),
    )
    defaults.update(kw)
    return RunConfig(**defaults)


def zero_state(n):
    return State(T=np.zeros(n), N=np.zeros(n), Phi=np.zeros(n), step=0, time=0.0)


def test_config_validation():
    with pytest.raises(ValueError, match="dt"):
        small_config(dt=0.0, tf=0.0)
    with pytest.raises(ValueError, match="integer"):
        small_config(dt=0.3, tf=1.0)
    cfg = small_config(dt=0.01, tf=0.05)
    assert cfg.n_steps == 5


@pytest.mark.parametrize("kwargs, match", [
    (dict(tol=float("nan")), "tol"),
    (dict(tol=float("inf")), "tol"),
    (dict(tol=0.0), "tol"),
    (dict(maxit=-3), "maxit"),
], ids=["nan-tol", "inf-tol", "zero-tol", "negative-maxit"])
def test_solver_options_validation(kwargs, match):
    with pytest.raises(ValueError, match=match):
        SolverOptions(**kwargs)


@pytest.mark.parametrize("variant", list(SchemeVariant), ids=lambda v: f"step_{v.name.lower()}")
def test_zero_state_is_a_fixed_point(variant):
    mesh = build_structured_mesh(5, 5, 1.0, 1.0)
    ctx = build_context(mesh)
    state = zero_state(mesh.n_vertices)
    for _ in range(3):
        state, diag = scheme._STEPPERS[variant](state, ctx, PARAMS, 1e-2)
        assert np.all(state.T == 0.0)
        assert np.all(state.N == 0.0)
        assert np.all(state.Phi == 0.0)
    assert diag.step == 3


def test_uniform_capacity_tumor_follows_closed_recursion():
    # With P = 0 (no vasculature) a spatially uniform tumor field decays by
    # the factor 1/(1 + alpha dt) per step and diffusion contributes nothing.
    # beta1 = 0 keeps the growing necrosis out of the tumor decay, which is
    # what makes the one-parameter recursion exact at every step.
    params = ModelParams(
        kappa1=8e-5, kappa0=8e-5, rho=1.0, alpha=0.8, beta1=0.0, beta2=0.8,
        gamma=0.008, delta=0.8, K=1.0,
    )
    mesh = build_structured_mesh(8, 8, 1.0, 1.0)
    ctx = build_context(mesh)
    n = mesh.n_vertices
    state = State(T=np.full(n, 1.0), N=np.zeros(n), Phi=np.zeros(n), step=0, time=0.0)
    dt = 1e-2
    solver = SolverOptions(tol=1e-14)
    expected = 1.0
    for _ in range(100):
        state, _ = imex_lumped(state, ctx, params, dt, solver=solver)
        expected = expected / (1.0 + params.alpha * dt)
        assert np.abs(state.T - expected).max() <= 1e-10
    assert np.all(state.N > 0.0)


def test_explicit_equals_imex_without_reactions():
    # Without reactions both schemes solve the same system with the same CG
    # run; imex-lumped then returns one monotone sweep of that solution.
    mesh = build_structured_mesh(7, 7, 1.0, 1.0)
    ctx = build_context(mesh)
    rng = np.random.default_rng(5)
    T0 = rng.uniform(0.0, 1.0, mesh.n_vertices)
    state = State(T=T0, N=np.zeros(mesh.n_vertices), Phi=np.full(mesh.n_vertices, 0.5),
                  step=0, time=0.0)
    dt = 1e-2
    for _ in range(5):
        s_imex, _ = imex_lumped(state, ctx, NO_REACTIONS, dt)
        s_expl, _ = explicit_lumped(state, ctx, NO_REACTIONS, dt)
        B = ctx.assemble(element_diffusivity(ctx, state.T, state.Phi, NO_REACTIONS))
        B.data[ctx.diagonal_slots] += ctx.lumped / dt
        swept, _ = scheme._monotone_sweep(B, B.data[ctx.diagonal_slots],
                                          ctx.lumped * (state.T / dt), s_expl.T, NO_REACTIONS.K)
        assert np.array_equal(s_imex.T, swept)
        assert np.array_equal(s_imex.N, s_expl.N)
        assert np.array_equal(s_imex.Phi, s_expl.Phi)
        state = s_imex


def test_monotone_sweep_writes_over_the_system_values():
    # On an acute mesh the system stores about 7 values per node. The sweep
    # writes min(B, 0) over them, so all it allocates, a few vectors, stays
    # below one copy of those values.
    mesh = acute_mesh(24, 24)
    ctx = build_context(mesh)
    rng = np.random.default_rng(3)
    B = ctx.assemble(rng.uniform(0.5, 2.0, mesh.n_triangles))
    B.data[ctx.diagonal_slots] += ctx.lumped / 1e-2
    values = B.data.copy()
    assert B.nnz >= 6.5 * mesh.n_vertices
    x = rng.uniform(0.0, 1.0, mesh.n_vertices)
    peak = peak_bytes(scheme._monotone_sweep, B, values[ctx.diagonal_slots],
                      ctx.lumped * x / 1e-2, x, 1.0)
    assert peak < values.nbytes
    assert np.array_equal(B.data, np.minimum(values, 0.0))


def test_consistent_equals_lumped_on_single_element_constant_fields():
    mesh = triangulation_from_arrays([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)], [(0, 1, 2)])
    ctx = build_context(mesh)
    mk = lambda: State(
        T=np.full(3, 0.4), N=np.full(3, 0.2), Phi=np.full(3, 0.5), step=0, time=0.0
    )
    solver = SolverOptions(tol=1e-14)
    s_lumped, _ = imex_lumped(mk(), ctx, PARAMS, 1e-2, solver=solver)
    s_cons, _ = imex_consistent(mk(), ctx, PARAMS, 1e-2, solver=solver)
    assert np.abs(s_lumped.T - s_cons.T).max() <= 1e-12
    assert np.abs(s_lumped.N - s_cons.N).max() <= 1e-12
    assert np.abs(s_lumped.Phi - s_cons.Phi).max() <= 1e-12


def test_element_diffusivity_range():
    mesh = build_structured_mesh(6, 6, 1.0, 1.0)
    ctx = build_context(mesh)
    rng = np.random.default_rng(1)
    T = rng.uniform(0, 1, mesh.n_vertices)
    Phi = rng.uniform(0, 1, mesh.n_vertices)
    coeff = element_diffusivity(ctx, T, Phi, PARAMS)
    assert coeff.shape == (mesh.n_triangles,)
    assert coeff.min() >= PARAMS.kappa0
    assert coeff.max() <= PARAMS.kappa1 + PARAMS.kappa0


@pytest.mark.parametrize("variant", list(SchemeVariant), ids=lambda v: v.value)
def test_step_system_residual_self_check(variant):
    # Post-verify the solved tumor system through a matrix-vector product,
    # independent of the CG internals, and the residual the step reports
    # against that recomputed one.
    from tumorfem.model import imex_coefficients_T, reactions, vascular_factors

    mesh = build_structured_mesh(10, 10, 1.0, 1.0)
    ctx = build_context(mesh)
    cfg = small_config(nx=10)
    state = initial_state(cfg, mesh)
    new, diag = step(state, ctx, PARAMS, cfg.dt, solver=cfg.solver, variant=variant)
    lumped, split = variant.lumped, variant.split
    A = ctx.assemble(element_diffusivity(ctx, state.T, state.Phi, PARAMS))
    m, M = ctx.lumped, ctx.mass
    if split:
        P, root = vascular_factors(state.Phi, state.T, PARAMS.K)
        src, dec = imex_coefficients_T(state.T, state.N, state.Phi, P, root, PARAMS)
    if lumped and split:
        B = (sp.diags(m / cfg.dt) + A + sp.diags(m * dec)).tocsr()
        rhs = m * (state.T / cfg.dt + src)
    elif lumped:
        B = (sp.diags(m / cfg.dt) + A).tocsr()
        rhs = m * state.T / cfg.dt + M @ reactions(state.T, state.N, state.Phi, PARAMS)[0]
    else:
        B = (M / cfg.dt + A + M @ sp.diags(dec)).tocsr()
        rhs = M @ (state.T / cfg.dt + src)
    rhs_norm = np.linalg.norm(rhs)
    residual = np.linalg.norm(rhs - B @ new.T) / rhs_norm
    assert residual <= cfg.solver.tol
    assert abs(diag.cg_residual - residual) <= 1e-14
    assert diag.cg_iters <= 10 * mesh.n_vertices


def test_run_reports_initial_row_and_energy():
    cfg = small_config(tf=0.03)
    report = run(cfg)
    assert len(report.steps) == 4
    assert report.steps[0].step == 0
    assert report.steps[0].time == 0.0
    assert report.steps[0].cg_iters == 0
    assert report.energy > 0.0
    assert report.steps[-1].energy_acc == pytest.approx(report.energy)
    # energy is nondecreasing across steps
    acc = [d.energy_acc for d in report.steps[1:]]
    assert all(b >= a for a, b in zip(acc, acc[1:]))


def test_run_report_keeps_no_copies():
    # The energy is the last step's accumulated value and the audit is the
    # mesh's own; the report stores neither again.
    report = run(small_config(tf=0.03))
    assert [f.name for f in fields(report)] == ["config", "mesh", "steps", "final_state"]
    assert report.energy == report.steps[-1].energy_acc
    assert report.mesh.angles is audit_angles(report.mesh)


def test_run_zero_steps_yields_only_initial_diagnostics():
    cfg = small_config(tf=0.0)
    report = run(cfg)
    assert len(report.steps) == 1
    assert report.steps[0].step == 0
    assert report.energy == 0.0


def test_run_is_deterministic():
    cfg = small_config(tf=0.05)
    r1 = run(cfg)
    r2 = run(cfg)
    for d1, d2 in zip(r1.steps, r2.steps):
        assert d1 == d2
    assert np.array_equal(r1.final_state.T, r2.final_state.T)


def test_certificate_runs_once_per_lumped_step(monkeypatch):
    calls = []
    certify = scheme._certify_m_matrix

    def counting(B, diagonal_slots, k):
        calls.append(k)
        return certify(B, diagonal_slots, k)

    monkeypatch.setattr(scheme, "_certify_m_matrix", counting)
    for variant in SchemeVariant:
        calls.clear()
        cfg = small_config(variant=variant, tf=0.02)
        run(cfg)  # must not raise
        lumped = variant is not SchemeVariant.IMEX_CONSISTENT
        assert calls == (list(range(1, cfg.n_steps + 1)) if lumped else [])


def test_empty_mesh_rejected(tmp_path):
    path = tmp_path / "novolume.txt"
    path.write_text("3 0\n0.0 0.0\n1.0 0.0\n0.0 1.0\n")
    cfg = small_config(mesh=MeshSpec(path=str(path)), tf=0.01)
    with pytest.raises(ValueError, match="no elements"):
        run(cfg)


def obtuse_mesh():
    nodes = [(0.0, 0.0), (1.0, 0.0), (-1.0, 1.0), (1.2, 1.4)]
    return triangulation_from_arrays(nodes, [(0, 1, 2), (1, 3, 2)])


@pytest.mark.parametrize("variant", list(SchemeVariant), ids=lambda v: v.value)
def test_obtuse_mesh_rejected_for_lumped_variants(tmp_path, variant):
    from tumorfem.mesh import write_mesh

    mesh = obtuse_mesh()
    path = tmp_path / "obtuse.txt"
    write_mesh(mesh, path)
    cfg = small_config(mesh=MeshSpec(path=str(path)), tf=0.01, variant=variant)
    if variant.lumped:
        with pytest.raises(ValueError, match=f"non-obtuse audit.*{variant.value}.*element 0"):
            run(cfg)
    else:
        # the un-lumped variant does not require the audit
        report = run(cfg)
        assert not report.mesh.angles.non_obtuse


@pytest.mark.parametrize("stepper", [imex_lumped, explicit_lumped], ids=["imex", "explicit"])
def test_certificate_rejects_obtuse_lumped_system(stepper):
    # Stepping directly skips the angle audit in run(); the certificate
    # still refuses the system before it is solved.
    mesh = obtuse_mesh()
    ctx = build_context(mesh)
    state = State(T=np.full(4, 0.5), N=np.full(4, 0.2), Phi=np.full(4, 0.5), step=0, time=0.0)
    with pytest.raises(SchemeError, match="step 1: .*positive off-diagonal entry in row 1"):
        stepper(state, ctx, PARAMS, 1e-2)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
@pytest.mark.parametrize("field", ["T", "N", "Phi"])
def test_non_finite_field_raises_naming_it(monkeypatch, field, bad):
    # Each new field is replaced by a copy of its old value, except that the
    # field under test gets one bad entry, so no other field is touched by it.
    mesh = build_structured_mesh(6, 6, 1.0, 1.0)
    ctx = build_context(mesh)
    state = initial_state(small_config(), mesh)

    def spoiled(values):
        values = values.copy()
        values[5] = bad
        return values

    solve = scheme.cg_solve

    def cg(*args, **kwargs):
        res = solve(*args, **kwargs)
        return replace(res, x=spoiled(res.x) if field == "T" else state.T.copy())

    monkeypatch.setattr(scheme, "cg_solve", cg)
    # The sweep would project an infinite solver value onto [0, K]; as the
    # identity it passes the solver's T through as the returned one.
    monkeypatch.setattr(scheme, "_monotone_sweep", lambda B, D, rhs, x, K: (x, 0.0))
    monkeypatch.setattr(scheme.model, "update_phi_node",
                        lambda *a: spoiled(state.Phi) if field == "Phi" else state.Phi.copy())
    monkeypatch.setattr(scheme.model, "update_n_node",
                        lambda *a: spoiled(state.N) if field == "N" else state.N.copy())
    with pytest.raises(SchemeError, match=f"step 1: non-finite values in {field}$"):
        imex_lumped(state, ctx, PARAMS, 1e-2, SolverOptions(tol=1e-12))


@pytest.mark.parametrize("field", ["T", "N", "Phi"])
def test_negative_field_raises_naming_it(monkeypatch, field):
    # Each new field is a copy of its old value, except one entry of the field
    # under test at -1e-300. The comparison schemes report such values instead
    # (test_acceptance, criteria 2 and 3).
    mesh = build_structured_mesh(6, 6, 1.0, 1.0)
    ctx = build_context(mesh)
    state = initial_state(small_config(), mesh)

    def new_value(name):
        values = getattr(state, name).copy()
        if name == field:
            values[5] = -1e-300
        return values

    monkeypatch.setattr(scheme, "_monotone_sweep", lambda *a: (new_value("T"), 0.0))
    monkeypatch.setattr(scheme.model, "update_phi_node", lambda *a: new_value("Phi"))
    monkeypatch.setattr(scheme.model, "update_n_node", lambda *a: new_value("N"))
    with pytest.raises(SchemeError,
                       match=rf"^step 1: {field} breaks its lower bound 0 \(min -1\.000e-300\)$"):
        imex_lumped(state, ctx, PARAMS, 1e-2, SolverOptions(tol=1e-12))


def test_falling_necrosis_raises_naming_its_first_node(monkeypatch):
    # Without reactions N^{k+1} equals N^k. One ulp less at two nodes, both
    # still above the lower bound 0, is a fall, and the step names the first.
    mesh = build_structured_mesh(6, 6, 1.0, 1.0)
    ctx = build_context(mesh)
    state = initial_state(small_config(), mesh)
    assert state.N.min() > 0.0
    update = scheme.model.update_n_node

    def lowered(*args):
        n_new = update(*args)
        assert np.array_equal(n_new, state.N)
        n_new[[12, 7]] = np.nextafter(n_new[[12, 7]], -np.inf)
        return n_new

    monkeypatch.setattr(scheme.model, "update_n_node", lowered)
    with pytest.raises(SchemeError, match=r"^step 1: N decreases at node 7$"):
        imex_lumped(state, ctx, NO_REACTIONS, 1e-2)


def test_fine_grid_bounds_run_keeps_t_nonnegative_as_computed():
    # The bounds preset on the 320 x 320 grid, cut to 21 steps. Its far field
    # is near 1e-300; an unswept CG solve returned it as -2.82e-99 at step 21.
    cfg = build_preset("bounds-comparison")[0]
    assert cfg.variant is SchemeVariant.IMEX_LUMPED
    cfg = replace(cfg, mesh=MeshSpec(nx=320, ny=320, lx=1.0, ly=1.0), tf=21 * cfg.dt)
    report = run(cfg)
    assert len(report.steps) == 22
    assert min(d.min_t for d in report.steps) == 0.0
    assert max(d.max_t for d in report.steps) <= cfg.params.K


def test_nondecreasing_necrosis_in_imex_run():
    cfg = small_config(tf=0.1)
    report = run(cfg)
    mins = [d.min_n for d in report.steps]
    assert all(b >= a for a, b in zip(mins, mins[1:]))


def test_variants_are_points_on_two_axes():
    axes = {v: (v.lumped, v.split) for v in SchemeVariant}
    assert axes == {
        SchemeVariant.IMEX_LUMPED: (True, True),
        SchemeVariant.EXPLICIT_LUMPED: (True, False),
        SchemeVariant.IMEX_CONSISTENT: (False, True),
    }
    for v in SchemeVariant:
        stepper = scheme._STEPPERS[v]
        assert stepper.func is step
        assert stepper.keywords == {"variant": v}


@pytest.mark.parametrize("variant", list(SchemeVariant))
def test_run_dispatches_every_step_through_stepper_table(monkeypatch, variant):
    assert set(scheme._STEPPERS) == set(SchemeVariant)
    calls = []
    original = scheme._STEPPERS[variant]

    def counting(state, *args, **kwargs):
        calls.append(state.step)
        return original(state, *args, **kwargs)

    monkeypatch.setitem(scheme._STEPPERS, variant, counting)
    cfg = small_config(variant=variant, tf=0.03)
    report = run(cfg)
    assert calls == list(range(cfg.n_steps))
    assert len(report.steps) == cfg.n_steps + 1


def test_run_writes_no_files(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "out"
    cfg = small_config(tf=0.02, output=OutputOptions(directory=str(out), snapshot_every=1))
    run(cfg)
    assert list(tmp_path.iterdir()) == []


def test_on_step_sees_every_state_in_order():
    cfg = small_config(tf=0.04)
    seen = []
    report = run(cfg, on_step=lambda mesh, state: seen.append((mesh, state)))
    assert [s.step for _, s in seen] == list(range(cfg.n_steps + 1))
    assert all(mesh is report.mesh for mesh, _ in seen)
    assert seen[-1][1] is report.final_state
    for (_, s), d in zip(seen, report.steps):
        assert (s.time, float(s.T.min()), float(s.N.max())) == (d.time, d.min_t, d.max_n)


def solver_error(solve, A, b, **kwargs):
    """The ``CgError`` that ``solve`` raises on the system ``A x = b``."""
    with pytest.raises(CgError) as err:
        solve(sp.csr_matrix(A), np.array(b), **kwargs)
    return err.value


# The last three cases are raised by the solvers themselves: their texts are
# what a failed run prints for those exits.
@pytest.mark.parametrize("exc, attrs, text", [
    (CgError("CG did not converge within 5 iterations", 5, 1.25e-3), ("iterations", "residual"),
     "CG did not converge within 5 iterations (relative residual 1.250e-03)"),
    (SchemeError(3, "system matrix is not row diagonally dominant in row 7"), ("step",),
     "step 3: system matrix is not row diagonally dominant in row 7"),
    (SchemeError(1, str(CgError("CG did not converge within 1 iterations", 1, 0.5))), ("step",),
     "step 1: CG did not converge within 1 iterations (relative residual 5.000e-01)"),
    (CgError("BiCGSTAB broke down (rho = 0) at iteration 2", 2, 0.25),
     ("iterations", "residual"),
     "BiCGSTAB broke down (rho = 0) at iteration 2 (relative residual 2.500e-01)"),
    (solver_error(cg_solve, [[2.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 2.0]],
                  [1.0, 0.0, 0.0], maxit=1),
     ("iterations", "residual"),
     "CG did not converge within 1 iterations (relative residual 5.000e-01)"),
    (solver_error(bicgstab_solve, [[1.0, 2.0, -2.0], [-2.0, 1.0, 0.0], [-2.0, -1.0, 1.0]],
                  [-2.0, -1.0, 0.0]),
     ("iterations", "residual"),
     "BiCGSTAB broke down (rho = 0) at iteration 2 (relative residual 9.759e-01)"),
    (solver_error(bicgstab_solve, np.identity(4), np.full(4, 1e200)), ("iterations",),
     "BiCGSTAB right-hand side norm is not finite at iteration 0 (relative residual nan)"),
], ids=["cg", "scheme", "scheme-from-cg", "bicgstab", "cg-maxit", "bicgstab-breakdown",
        "rhs-norm-overflow"])
def test_step_errors_survive_a_pickle_round_trip(exc, attrs, text):
    # Worker pools pickle an exception raised in a worker back to the parent.
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is type(exc)
    assert str(back) == str(exc) == text
    assert [getattr(back, a) for a in attrs] == [getattr(exc, a) for a in attrs]


def steps_started_from_the_current_field(cfg):
    """run()'s per-step diagnostics, with every solve started from T^k."""
    mesh = cfg.mesh.build()
    ctx = build_context(mesh)
    state = initial_state(cfg, mesh)
    stepper = scheme._STEPPERS[cfg.variant]
    diags, energy = [], 0.0
    for _ in range(cfg.n_steps):
        state, d = stepper(state, ctx, cfg.params, cfg.dt, solver=cfg.solver)
        energy += cfg.dt * norms(ctx, state.T)
        d.energy_acc = energy
        diags.append(d)
    return diags


# Total iterations over the run; started from T^k the solves took 500, 500
# and 1,245.
@pytest.mark.parametrize("preset, index, budget", [
    ("bounds-comparison", 0, 350),
    ("bounds-comparison", 1, 350),
    ("lumping-comparison", 1, 1_000),
], ids=["bounds-imex-lumped", "bounds-explicit-lumped", "lumping-imex-consistent"])
def test_extrapolated_start_saves_iterations_and_keeps_every_step(preset, index, budget):
    cfg = build_preset(preset)[index]
    report = run(cfg)
    assert sum(d.cg_iters for d in report.steps) <= budget
    # Both starts solve to tol 1e-12, so the fields agree far inside 1e-10 K.
    K = cfg.params.K
    for got, want in zip(report.steps[1:], steps_started_from_the_current_field(cfg), strict=True):
        assert (got.step, got.time) == (want.step, want.time)
        for name in ("min_t", "max_t", "min_n", "max_n", "min_phi", "max_phi"):
            assert abs(getattr(got, name) - getattr(want, name)) <= 1e-10 * K
        assert got.energy_acc == pytest.approx(want.energy_acc, rel=1e-9, abs=0.0)
    if cfg.variant is SchemeVariant.IMEX_LUMPED:
        assert min(min(d.min_t, d.min_n, d.min_phi) for d in report.steps) >= 0.0
    else:
        assert min(d.min_t for d in report.steps) < 0.0


def test_run_starts_each_solve_from_the_extrapolated_fields(monkeypatch):
    seen = []
    original = scheme._STEPPERS[SchemeVariant.IMEX_LUMPED]

    def recording(state, *args, guess=None, **kwargs):
        seen.append((state.T, None if guess is None else guess.copy()))
        return original(state, *args, guess=guess, **kwargs)

    monkeypatch.setitem(scheme._STEPPERS, SchemeVariant.IMEX_LUMPED, recording)
    run(small_config(tf=0.05))
    T = [t for t, _ in seen]
    guesses = [g for _, g in seen]
    assert len(seen) == 5
    assert guesses[0] is None
    np.testing.assert_allclose(guesses[1], 2.0 * T[1] - T[0], rtol=0.0, atol=4e-15)
    for k in range(2, len(seen)):
        np.testing.assert_allclose(guesses[k], 3.0 * T[k] - 3.0 * T[k - 1] + T[k - 2],
                                   rtol=0.0, atol=4e-15)


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("stepper", [imex_lumped, explicit_lumped, imex_consistent],
                         ids=["imex-lumped", "explicit-lumped", "imex-consistent"])
def test_non_finite_guess_starts_from_the_current_field(stepper, bad):
    cfg = small_config()
    mesh = cfg.mesh.build()
    ctx = build_context(mesh)
    state = initial_state(cfg, mesh)
    guess = 2.0 * state.T
    guess[3] = bad
    got, got_d = stepper(state, ctx, cfg.params, cfg.dt, solver=cfg.solver, guess=guess)
    want, want_d = stepper(state, ctx, cfg.params, cfg.dt, solver=cfg.solver)
    assert np.array_equal(got.T, want.T)
    assert got_d == want_d
