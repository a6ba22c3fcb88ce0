import ast
import gc
import itertools
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from tumorfem.config import (
    ConfigError,
    GaussianProfile,
    InitialConditions,
    MeshSpec,
    OutputOptions,
    RunConfig,
    SchemeVariant,
    SolverOptions,
    parse_config,
    parse_config_file,
)
from tumorfem.cli import TABLE_BOUNDS, main
from tumorfem.mesh import build_structured_mesh, write_mesh
from tumorfem.model import State
from tumorfem.output import (
    CSV_HEADER,
    vtk_geometry,
    write_compare_csv,
    write_csv,
    write_snapshot,
)
from tumorfem.scheme import run

from oracles import serialize_config, write_config_file
from test_assembly_equivalence import graded_mesh


def tiny_config(**kw):
    defaults = dict(
        mesh=MeshSpec(nx=4, ny=4, lx=1.0, ly=1.0),
        params=TABLE_BOUNDS,
        dt=1e-2,
        tf=0.03,
        variant=SchemeVariant.IMEX_LUMPED,
        initial=InitialConditions(
            T=GaussianProfile(base=0.0, amplitude=1.0, center=(0.5, 0.5), width=0.2),
            N=GaussianProfile(base=1.0, amplitude=-0.05, center=(0.5, 0.5), width=0.1),
            Phi=GaussianProfile(base=0.5, amplitude=0.0),
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
    write_snapshot(str(tmp_path), vtk_geometry(mesh), State(**fields, step=3, time=0.03))
    text = (tmp_path / "snapshot_000003.vtk").read_text().splitlines()
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
    # as many steps, but of twice the length
    rc = run(tiny_config(dt=0.02, tf=0.06))
    with pytest.raises(ValueError, match="^time grids differ at step 1$"):
        write_compare_csv(ra, rc, str(tmp_path / "x.csv"))


# The per-line writers the one-call writers replaced, kept as byte oracles.
def format_float(x: float) -> str:
    return f"{x:.17g}"


def oracle_write_csv(report, path: str) -> None:
    with open(path, "w", encoding="ascii") as f:
        f.write(CSV_HEADER + "\n")
        for d in report.steps:
            row = [
                str(d.step),
                format_float(d.time),
                format_float(d.min_t),
                format_float(d.max_t),
                format_float(d.min_n),
                format_float(d.max_n),
                format_float(d.min_phi),
                format_float(d.max_phi),
                str(d.cg_iters),
                format_float(d.cg_residual),
                format_float(d.energy_acc),
            ]
            f.write(",".join(row) + "\n")


def oracle_write_vtk(path: str, mesh, fields, title: str = "tumorfem snapshot") -> None:
    with open(path, "w", encoding="ascii") as f:
        f.write("# vtk DataFile Version 3.0\n")
        f.write(title + "\n")
        f.write("ASCII\n")
        f.write("DATASET UNSTRUCTURED_GRID\n")
        f.write(f"POINTS {mesh.n_vertices} double\n")
        for x, y in mesh.nodes:
            f.write(f"{format_float(x)} {format_float(y)} 0\n")
        f.write(f"CELLS {mesh.n_triangles} {4 * mesh.n_triangles}\n")
        for a, b, c in mesh.triangles:
            f.write(f"3 {a} {b} {c}\n")
        f.write(f"CELL_TYPES {mesh.n_triangles}\n")
        for _ in range(mesh.n_triangles):
            f.write("5\n")
        f.write(f"POINT_DATA {mesh.n_vertices}\n")
        for name, values in fields.items():
            f.write(f"SCALARS {name} double 1\n")
            f.write("LOOKUP_TABLE default\n")
            for v in values:
                f.write(format_float(float(v)) + "\n")


def oracle_write_compare_csv(report_a, report_b, path: str) -> None:
    if len(report_a.steps) != len(report_b.steps):
        raise ValueError("runs have different step counts")
    cols = ["minT", "maxT", "minN", "maxN", "minPhi", "maxPhi", "energy_acc"]
    header = "step,time," + ",".join(f"{c}_a" for c in cols) + "," + ",".join(
        f"{c}_b" for c in cols
    )
    attr = {
        "minT": "min_t", "maxT": "max_t", "minN": "min_n", "maxN": "max_n",
        "minPhi": "min_phi", "maxPhi": "max_phi", "energy_acc": "energy_acc",
    }
    with open(path, "w", encoding="ascii") as f:
        f.write(header + "\n")
        for da, db in zip(report_a.steps, report_b.steps):
            if da.step != db.step or da.time != db.time:
                raise ValueError(f"time grids differ at step {da.step}")
            row = [str(da.step), format_float(da.time)]
            row += [format_float(getattr(da, attr[c])) for c in cols]
            row += [format_float(getattr(db, attr[c])) for c in cols]
            f.write(",".join(row) + "\n")


# Values whose shortest and 17-digit forms differ, signed zero, a subnormal,
# the capacity, the fine-imex undershoot, and values with few digits.
AWKWARD = [-2.8e-99, -0.0, 1.0 / 3.0, TABLE_BOUNDS.K, 5e-324, 0.1, 1.0]


def awkward_field(n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    values = rng.uniform(0.0, TABLE_BOUNDS.K, n)
    values[: len(AWKWARD)] = AWKWARD
    return rng.permutation(values)


@pytest.mark.parametrize(
    "mesh",
    [build_structured_mesh(6, 5, 1.0, 2.0), graded_mesh(6, 5, seed=3)],
    ids=["structured", "graded"],
)
def test_vtk_bytes_equal_per_line_oracle(tmp_path, mesh):
    n = mesh.n_vertices
    state = State(
        T=awkward_field(n, 1), N=awkward_field(n, 2), Phi=awkward_field(n, 3), step=7, time=0.07
    )
    fields = {"T": state.T, "N": state.N, "Phi": state.Phi}
    oracle_write_vtk(str(tmp_path / "oracle.vtk"), mesh, fields)
    expected = (tmp_path / "oracle.vtk").read_bytes()
    write_snapshot(str(tmp_path), vtk_geometry(mesh), state)
    assert (tmp_path / "snapshot_000007.vtk").read_bytes() == expected


def awkward_report(cfg):
    report = run(cfg)
    values = itertools.cycle(AWKWARD)
    for d in report.steps[1:]:
        for attr in ("min_t", "max_t", "min_n", "max_phi", "cg_residual", "energy_acc"):
            setattr(d, attr, next(values))
    return report


def test_csv_bytes_equal_per_line_oracle(tmp_path):
    report = awkward_report(tiny_config())
    oracle_write_csv(report, str(tmp_path / "oracle.csv"))
    write_csv(report, str(tmp_path / "new.csv"))
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()


def test_compare_csv_bytes_equal_per_line_oracle(tmp_path):
    ra = awkward_report(tiny_config())
    rb = run(tiny_config(variant=SchemeVariant.EXPLICIT_LUMPED))
    oracle_write_compare_csv(ra, rb, str(tmp_path / "oracle.csv"))
    write_compare_csv(ra, rb, str(tmp_path / "new.csv"))
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()


@pytest.mark.parametrize("recycle", [False, True], ids=["fresh-meshes", "recycled-object"])
def test_cli_runs_on_two_meshes_write_their_own_geometry(tmp_path, monkeypatch, recycle):
    # Same vertex and cell counts, different coordinates. Each mesh is freed
    # before the next run; CPython may then hand its id to the next mesh, so
    # a geometry cached by id(mesh) could be written with the wrong POINTS.
    # With ``recycle`` every run gets the first run's object refilled with
    # its own mesh, which makes that id collision certain.
    if recycle:
        build, first = MeshSpec.build, []

        def build_into_first(spec):
            mesh = build(spec)
            if not first:
                first.append(mesh)
            for name in ("nodes", "triangles", "h"):
                object.__setattr__(first[0], name, getattr(mesh, name))
            return first[0]

        monkeypatch.setattr(MeshSpec, "build", build_into_first)
    specs = [MeshSpec(nx=4, ny=4, lx=1.0, ly=1.0), MeshSpec(nx=4, ny=4, lx=2.0, ly=1.0)] * 2
    for i, spec in enumerate(specs):
        cfg_path = tmp_path / f"run{i}.cfg"
        write_config_file(tiny_config(mesh=spec), str(cfg_path))
        out_dir = tmp_path / f"out{i}"
        assert main(["run", str(cfg_path), "--output-dir", str(out_dir), "--snapshot-every", "1"]) == 0
        gc.collect()
        oracle_write_vtk(str(tmp_path / "geometry.vtk"), build_structured_mesh(4, 4, spec.lx, 1.0), {})
        geometry = (tmp_path / "geometry.vtk").read_text()
        snapshots = sorted(out_dir.glob("*.vtk"))
        assert len(snapshots) == 4
        for path in snapshots:
            assert path.read_text().startswith(geometry)


def test_a_mesh_file_rewritten_between_runs_is_read_again(tmp_path):
    # One path, the same counts, moved coordinates, one process: each run
    # must see the file as it is, so runs on a mesh file are never memoised.
    # Each file holds a structured mesh bit for bit, so its run must match
    # that mesh's, computed first: nothing runs between the two file runs.
    expected = []
    for i, lx in enumerate((1.0, 1.5)):
        expected.append(tmp_path / f"expected{i}.csv")
        write_csv(run(tiny_config(mesh=MeshSpec(nx=4, ny=4, lx=lx, ly=1.0))), str(expected[i]))
    mesh_path, cfg_path = tmp_path / "mesh.txt", tmp_path / "run.cfg"
    write_config_file(tiny_config(mesh=MeshSpec(path=str(mesh_path))), str(cfg_path))
    for i, lx in enumerate((1.0, 1.5)):
        mesh = build_structured_mesh(4, 4, lx, 1.0)
        write_mesh(mesh, mesh_path)
        out_dir = tmp_path / f"out{i}"
        assert main(["run", str(cfg_path), "--output-dir", str(out_dir), "--snapshot-every", "1"]) == 0
        oracle_write_vtk(str(tmp_path / "geometry.vtk"), mesh, {})
        geometry = (tmp_path / "geometry.vtk").read_text()
        snapshots = sorted(out_dir.glob("*.vtk"))
        assert len(snapshots) == 4
        for path in snapshots:
            assert path.read_text().startswith(geometry)
        assert (out_dir / "per_step.csv").read_bytes() == expected[i].read_bytes()


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
    with pytest.raises(ConfigError, match="^tf must be zero or at least dt$"):
        parse_config(cfg_text.replace("tf = 0.03", "tf = 0.005"))
    with pytest.raises(ConfigError, match="profile"):
        parse_config(readme_config_example(("Phi_profile = constant", "Phi_profile = blob")))
    with pytest.raises(ConfigError, match="cannot read"):
        parse_config_file("/nonexistent/path.cfg")
    with pytest.raises(ConfigError, match=r"^missing key 'nx' in section \[mesh\]$"):
        parse_config(cfg_text.replace("nx = 4\n", ""))
    with pytest.raises(ConfigError, match=r"^\[mesh\] nx = 'four' is not an integer$"):
        parse_config(cfg_text.replace("nx = 4", "nx = four"))
    with pytest.raises(ConfigError, match="^config parse error: "):
        parse_config("rho = 1.0\n" + cfg_text)
    file_text = serialize_config(tiny_config(mesh=MeshSpec(path="mesh.txt")))
    with pytest.raises(ConfigError, match=r"^\[mesh\] path must not be empty"):
        parse_config(file_text.replace("path = mesh.txt", "path ="))


@pytest.mark.parametrize("old, new, match", [
    ("T_width = 0.2", "T_width = 0.0", "width must be positive"),
    ("T_width = 0.2", "T_width = -0.2", "width must be positive"),
    ("T_amplitude = 1.0", "T_amplitude = nan", "must be finite"),
    ("N_center_x = 0.5", "N_center_x = inf", "must be finite"),
    ("Phi_value = 0.5", "Phi_value = nan", "must be finite"),
], ids=["zero-width", "negative-width", "nan-amplitude", "inf-center", "nan-value"])
def test_parse_rejects_bad_profiles(old, new, match):
    # Configs are serialized with Gaussian profiles only; the README's Phi is constant.
    text = readme_config_example() if old.startswith("Phi_value") else serialize_config(tiny_config())
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
    ("maxit = 0", "maxit = 0\njacobi = false", r"unknown key 'jacobi' in section \[solver\]"),
], ids=["misspelt-key", "misspelt-section", "removed-key", "other-mesh-type-key",
        "removed-jacobi-key"])
def test_parse_rejects_unknown_sections_and_keys(old, new, match):
    text = serialize_config(tiny_config())
    assert old in text
    with pytest.raises(ConfigError, match=match):
        parse_config(text.replace(old, new))


SWEEP_BASES = {
    "structured": tiny_config(),
    "file-mesh": tiny_config(mesh=MeshSpec(path="mesh.txt")),
    "constant-T": tiny_config(initial=replace(
        tiny_config().initial, T=GaussianProfile(base=0.3, amplitude=0.0))),
    "gaussian-T": tiny_config(initial=replace(
        tiny_config().initial, T=GaussianProfile(base=0.1, center=(0.2, 0.7), width=0.3))),
}
# Every optional key is set away from its default, so dropping it shows.
SWEEP_OPTIONAL = dict(
    solver=SolverOptions(tol=1e-9, maxit=50),
    output=OutputOptions(directory="out", snapshot_every=3),
    label="sweep",
)


def _with_default(cfg, section, key):
    """The config parse_config returns when the optional key is absent."""
    if key == "label":
        return replace(cfg, label="run")
    options = getattr(cfg, section)
    return replace(cfg, **{section: replace(options, **{key: getattr(type(options), key)})})


def _sweep_base(name):
    cfg = replace(SWEEP_BASES[name], **SWEEP_OPTIONAL)
    return cfg, serialize_config(cfg).splitlines(keepends=True)


@pytest.mark.parametrize("base", list(SWEEP_BASES))
def test_dropping_one_key_gives_its_default_or_a_missing_key_error(base):
    cfg, lines = _sweep_base(base)
    section = None
    for i, line in enumerate(lines):
        if line.startswith("["):
            section = line.strip()[1:-1]
        if " = " not in line:
            continue
        key = line.split(" = ")[0]
        text = "".join(lines[:i] + lines[i + 1:])
        if section in ("solver", "output") or key == "label":
            assert parse_config(text) == _with_default(cfg, section, key), key
        else:
            with pytest.raises(ConfigError, match=rf"^missing key '{key}' in section \[{section}\]$"):
                parse_config(text)


@pytest.mark.parametrize("base", list(SWEEP_BASES))
def test_every_key_or_section_parsing_does_not_read_is_unknown(base):
    cfg, lines = _sweep_base(base)
    text = "".join(lines)
    assert parse_config(text) == cfg
    headers = [line for line in lines if line.startswith("[")]
    assert len(headers) == 7
    for header in headers:
        with pytest.raises(ConfigError, match=rf"^unknown key 'bogus' in section \{header.strip()}$"):
            parse_config(text.replace(header, header + "bogus = 1\n"))
    other_branch = [
        ("type = file\n", "[mesh]\n", "nx = 4\n", "nx"),
        ("type = structured\n", "[mesh]\n", "path = mesh.txt\n", "path"),
        ("T_profile = gaussian\n", "[initial]\n", "T_value = 0.5\n", "T_value"),
    ]
    added = 0
    for branch, header, extra, key in other_branch:
        if branch in text:
            added += 1
            with pytest.raises(ConfigError, match=rf"^unknown key '{key}' in section "):
                parse_config(text.replace(header, header + extra))
    assert added == 2
    with pytest.raises(ConfigError, match=r"^unknown key 'tol' in section \[mesh\]$"):
        parse_config("[DEFAULT]\ntol = 1e-3\n\n" + text)
    with pytest.raises(ConfigError, match=r"^unknown section \[extra\]$"):
        parse_config(text + "\n[extra]\n")


def test_absent_solver_and_output_sections_take_the_dataclass_defaults():
    text = serialize_config(tiny_config())
    head, tail = text.split("\n[solver]\n")
    assert tail.count("[") == 1 and "\n[output]\n" in tail  # the last two sections
    config = parse_config(head)
    assert config.solver == SolverOptions()
    assert config.output == OutputOptions()


def test_output_options_reject_negative_snapshot_every():
    with pytest.raises(ValueError, match="snapshot_every must be nonnegative"):
        OutputOptions(snapshot_every=-1)


def test_parse_rejects_negative_snapshot_every():
    text = serialize_config(tiny_config())
    assert "snapshot_every = 0" in text
    with pytest.raises(ConfigError, match="snapshot_every must be nonnegative"):
        parse_config(text.replace("snapshot_every = 0", "snapshot_every = -5"))


def readme_block(language: str) -> str:
    """The README's first fenced code block in ``language``."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    return readme.split(f"```{language}\n", 1)[1].split("```", 1)[0]


def readme_config_example(*edits: tuple[str, str]) -> str:
    """The README's config example, each ``(old, new)`` of ``edits`` replacing whole lines."""
    text = readme_block("ini")
    for old, new in edits:
        assert f"\n{old}\n" in text
        text = text.replace(f"\n{old}\n", f"\n{new}\n")
    return text


def test_readme_config_example_parses():
    cfg = parse_config(readme_config_example())
    assert (cfg.variant, cfg.label, cfg.mesh.nx) == (SchemeVariant.IMEX_LUMPED, "demo", 40)


def test_constant_profile_is_the_clipped_value_everywhere():
    # A constant profile is read as the Gaussian of amplitude 0. Its field is
    # np.full(n, min(max(value, 0), K)) bit for bit, except at -0.0.
    nodes = build_structured_mesh(4, 4, 1.0, 1.0).nodes
    K = parse_config(readme_config_example()).params.K

    def phi(value):
        cfg = parse_config(readme_config_example(("Phi_value = 0.5", f"Phi_value = {value!r}")))
        return cfg.initial.Phi.evaluate(nodes, K)

    for value in (-1.0, 0.0, 0.3, K, K + 1.0):
        assert phi(value).tobytes() == np.full(len(nodes), min(max(value, 0.0), K)).tobytes(), value
    # min(max(-0.0, 0.0), K) keeps the sign; the flat Gaussian gives +0.0, as np.clip does.
    assert math.copysign(1.0, min(max(-0.0, 0.0), K)) == -1.0
    assert phi(-0.0).tobytes() == np.zeros(len(nodes)).tobytes()


def test_constant_profile_reads_its_value_and_no_gaussian_key():
    with pytest.raises(ConfigError, match=r"^missing key 'Phi_value' in section \[initial\]$"):
        parse_config(readme_config_example(("Phi_value = 0.5", "")))
    with pytest.raises(ConfigError, match=r"^unknown key 'Phi_base' in section \[initial\]$"):
        parse_config(readme_config_example(("Phi_value = 0.5", "Phi_value = 0.5\nPhi_base = 0.0")))


def test_param_key_case_preserved():
    text = serialize_config(tiny_config())
    assert "\nK = 1.0\n" in text
    assert parse_config(text).params.K == 1.0


def test_config_module_imports_no_numerics():
    # The run-config types and their parser need the mesh and the model
    # parameters, never the scheme, the assembly or the solvers.
    import tumorfem.config

    imported = set()
    for node in ast.walk(ast.parse(Path(tumorfem.config.__file__).read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            names = [node.module] if node.module else [a.name for a in node.names]
            imported.update(f"tumorfem.{n}" if node.level else n for n in names)
        elif isinstance(node, ast.Import):
            imported.update(a.name for a in node.names)
    ours = {m for m in imported if m.split(".")[0] == "tumorfem"}
    assert ours <= {"tumorfem.mesh", "tumorfem.model"}
