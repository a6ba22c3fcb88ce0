from pathlib import Path

import numpy as np
import pytest

from tumorfem.config import (
    ConfigError,
    parse_config,
    parse_config_file,
    serialize_config,
    write_config_file,
)
from tumorfem.mesh import build_structured_mesh
from tumorfem.output import (
    CSV_HEADER,
    write_compare_csv,
    write_csv,
    write_vtk,
)
from tumorfem.scheme import (
    ConstantProfile,
    GaussianProfile,
    InitialConditions,
    MeshSpec,
    OutputOptions,
    RunConfig,
    SchemeVariant,
    SolverOptions,
    run,
)
from tumorfem.model import ModelParams

PARAMS = ModelParams(
    kappa1=8e-5, kappa0=8e-5, rho=1.0, alpha=0.8, beta1=0.8, beta2=0.8,
    gamma=0.008, delta=0.8, K=1.0,
)


def tiny_config(**kw):
    defaults = dict(
        mesh=MeshSpec(nx=4, ny=4, lx=1.0, ly=1.0),
        params=PARAMS,
        dt=1e-2,
        tf=0.03,
        variant=SchemeVariant.IMEX_LUMPED,
        initial=InitialConditions(
            T=GaussianProfile(base=0.0, amplitude=1.0, center=(0.5, 0.5), width=0.2),
            N=GaussianProfile(base=1.0, amplitude=-0.05, center=(0.5, 0.5), width=0.1),
            Phi=ConstantProfile(value=0.5),
        ),
        solver=SolverOptions(tol=1e-12),
    )
    defaults.update(kw)
    return RunConfig(**defaults)


def test_csv_layout_and_precision(tmp_path):
    report = run(tiny_config())
    path = tmp_path / "steps.csv"
    write_csv(report, str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + len(report.steps)
    row = lines[2].split(",")
    assert int(row[0]) == 1
    # 17 significant digits round-trip exactly
    assert float(row[2]) == report.steps[1].min_t
    assert float(row[10]) == report.steps[1].energy_acc


def test_vtk_snapshot_structure(tmp_path):
    mesh = build_structured_mesh(3, 2, 1.0, 1.0)
    fields = {
        "T": np.linspace(0.0, 1.0, mesh.n_vertices),
        "N": np.zeros(mesh.n_vertices),
        "Phi": np.full(mesh.n_vertices, 0.5),
    }
    path = tmp_path / "snap.vtk"
    write_vtk(str(path), mesh, fields)
    text = path.read_text().splitlines()
    assert text[0].startswith("# vtk DataFile")
    assert "DATASET UNSTRUCTURED_GRID" in text
    assert f"POINTS {mesh.n_vertices} double" in text
    assert f"CELLS {mesh.n_triangles} {4 * mesh.n_triangles}" in text
    assert f"POINT_DATA {mesh.n_vertices}" in text
    for name in fields:
        assert f"SCALARS {name} double 1" in text
    # every cell line is a triangle
    start = text.index(f"CELLS {mesh.n_triangles} {4 * mesh.n_triangles}") + 1
    for line in text[start : start + mesh.n_triangles]:
        assert line.startswith("3 ")


def test_compare_csv_identical_runs_diff_zero(tmp_path):
    cfg = tiny_config()
    ra = run(cfg)
    rb = run(cfg)
    path = tmp_path / "joined.csv"
    write_compare_csv(ra, rb, str(path))
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    ncols = (len(header) - 2) // 2
    for line in lines[1:]:
        cells = line.split(",")
        a = cells[2 : 2 + ncols]
        b = cells[2 + ncols :]
        assert a == b


def test_compare_csv_grid_mismatch(tmp_path):
    ra = run(tiny_config(tf=0.03))
    rb = run(tiny_config(tf=0.02))
    with pytest.raises(ValueError, match="step counts"):
        write_compare_csv(ra, rb, str(tmp_path / "x.csv"))


def test_config_round_trip_is_exact(tmp_path):
    cfg = tiny_config(
        output=OutputOptions(directory="out", snapshot_every=3),
        label="roundtrip",
    )
    text = serialize_config(cfg)
    back = parse_config(text)
    assert back == cfg
    # file round trip too
    path = tmp_path / "run.cfg"
    write_config_file(cfg, str(path))
    assert parse_config_file(str(path)) == cfg
    # serialization is stable
    assert serialize_config(back) == text


def test_config_round_trip_preserves_awkward_floats():
    cfg = tiny_config(dt=0.1 / 7.0, tf=(0.1 / 7.0) * 3)
    back = parse_config(serialize_config(cfg))
    assert back.dt == cfg.dt
    assert back.tf == cfg.tf


def test_parse_errors_are_informative():
    with pytest.raises(ConfigError, match=r"missing section \[mesh\]"):
        parse_config("[params]\nrho = 1\n")
    cfg_text = serialize_config(tiny_config())
    with pytest.raises(ConfigError, match="not a number"):
        parse_config(cfg_text.replace("rho = 1.0", "rho = fast"))
    with pytest.raises(ConfigError, match="variant"):
        parse_config(cfg_text.replace("variant = imex-lumped", "variant = magic"))
    with pytest.raises(ConfigError, match="integer step count"):
        parse_config(cfg_text.replace("tf = 0.03", "tf = 0.034"))
    with pytest.raises(ConfigError, match="profile"):
        parse_config(cfg_text.replace("Phi_profile = constant", "Phi_profile = blob"))
    with pytest.raises(ConfigError, match="cannot read"):
        parse_config_file("/nonexistent/path.cfg")


@pytest.mark.parametrize("old, new, match", [
    ("T_width = 0.2", "T_width = 0.0", "width must be positive"),
    ("T_width = 0.2", "T_width = -0.2", "width must be positive"),
    ("T_amplitude = 1.0", "T_amplitude = nan", "must be finite"),
    ("N_center_x = 0.5", "N_center_x = inf", "must be finite"),
    ("Phi_value = 0.5", "Phi_value = nan", "must be finite"),
], ids=["zero-width", "negative-width", "nan-amplitude", "inf-center", "nan-value"])
def test_parse_rejects_bad_profiles(old, new, match):
    text = serialize_config(tiny_config())
    assert old in text
    with pytest.raises(ConfigError, match=match):
        parse_config(text.replace(old, new))


BAD_MODEL_OR_SOLVER_INPUT = pytest.mark.parametrize("old, new, match", [
    ("tol = 1e-12", "tol = nan", "tol must be finite and positive"),
    ("kappa0 = 8e-05", "kappa0 = inf", "kappa0 must be finite"),
    ("rho = 1.0", "rho = nan", "rho must be finite"),
    ("K = 1.0", "K = nan", "K must be finite"),
    ("maxit = 0", "maxit = -3", "maxit must be nonnegative"),
], ids=["nan-tol", "inf-kappa0", "nan-rho", "nan-K", "negative-maxit"])


@BAD_MODEL_OR_SOLVER_INPUT
def test_parse_rejects_bad_model_and_solver_input(old, new, match):
    text = serialize_config(tiny_config())
    assert old in text
    with pytest.raises(ConfigError, match=match):
        parse_config(text.replace(old, new))


@pytest.mark.parametrize("old, new, match", [
    ("tol = 1e-12", "tolerance = 1e-2", r"unknown key 'tolerance' in section \[solver\]"),
    ("[solver]", "[solvr]", r"unknown section \[solvr\]"),
    ("label = run", "label = run\ndebug_checks = true",
     r"unknown key 'debug_checks' in section \[scheme\]"),
    ("nx = 4", "nx = 4\npath = mesh.txt", r"unknown key 'path' in section \[mesh\]"),
], ids=["misspelt-key", "misspelt-section", "removed-key", "other-mesh-type-key"])
def test_parse_rejects_unknown_sections_and_keys(old, new, match):
    text = serialize_config(tiny_config())
    assert old in text
    with pytest.raises(ConfigError, match=match):
        parse_config(text.replace(old, new))


def test_output_options_reject_negative_snapshot_every():
    with pytest.raises(ValueError, match="snapshot_every must be nonnegative"):
        OutputOptions(snapshot_every=-1)


def test_parse_rejects_negative_snapshot_every():
    text = serialize_config(tiny_config())
    assert "snapshot_every = 0" in text
    with pytest.raises(ConfigError, match="snapshot_every must be nonnegative"):
        parse_config(text.replace("snapshot_every = 0", "snapshot_every = -5"))


def test_readme_config_example_parses():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    example = readme.split("```ini\n", 1)[1].split("```", 1)[0]
    cfg = parse_config(example)
    assert (cfg.variant, cfg.label, cfg.mesh.nx) == (SchemeVariant.IMEX_LUMPED, "demo", 40)


def test_param_key_case_preserved():
    text = serialize_config(tiny_config())
    assert "\nK = 1.0\n" in text
    assert parse_config(text).params.K == 1.0
