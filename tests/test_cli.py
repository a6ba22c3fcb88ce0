import csv

import pytest

from tumorfem.cli import build_preset, main
from tumorfem.config import ConfigError, SchemeVariant, parse_config
from tumorfem.mesh import build_structured_mesh, triangulation_from_arrays, write_mesh

from oracles import serialize_config, write_config_file
from test_output_config import BAD_MODEL_OR_SOLVER_INPUT, readme_config_example, tiny_config


def test_check_mesh_ok(tmp_path, capsys):
    path = tmp_path / "mesh.txt"
    write_mesh(build_structured_mesh(4, 4, 1.0, 1.0), path)
    assert main(["check-mesh", str(path)]) == 0
    out = capsys.readouterr().out
    assert "non_obtuse=True" in out


def test_check_mesh_obtuse_names_element(tmp_path, capsys):
    mesh = triangulation_from_arrays(
        [(0.0, 0.0), (1.0, 0.0), (-1.0, 1.0)], [(0, 1, 2)]
    )
    path = tmp_path / "obtuse.txt"
    write_mesh(mesh, path)
    assert main(["check-mesh", str(path)]) == 1
    captured = capsys.readouterr()
    assert "element 0" in captured.err


def test_check_mesh_empty_file_is_config_error(tmp_path, capsys):
    path = tmp_path / "empty.txt"
    path.write_text("")
    assert main(["check-mesh", str(path)]) == 2
    assert "error" in capsys.readouterr().err


def test_run_config_file(tmp_path, capsys):
    cfg_path = tmp_path / "run.cfg"
    write_config_file(tiny_config(), str(cfg_path))
    out_dir = tmp_path / "out"
    assert main(["run", str(cfg_path), "--output-dir", str(out_dir)]) == 0
    assert (out_dir / "per_step.csv").exists()
    assert (out_dir / "summary.txt").exists()


@pytest.mark.parametrize("every, steps", [(2, [0, 2, 4]), (3, [0, 3, 4])],
                         ids=["every-2", "every-3"])
def test_snapshots_written(tmp_path, every, steps):
    # every `every` steps and at the last step, over 4 steps
    from tumorfem.config import OutputOptions

    cfg_path = tmp_path / "run.cfg"
    write_config_file(tiny_config(tf=0.04, output=OutputOptions(snapshot_every=every)),
                      str(cfg_path))
    out_dir = tmp_path / "out"
    assert main(["run", str(cfg_path), "--output-dir", str(out_dir)]) == 0
    names = sorted(p.name for p in out_dir.glob("*.vtk"))
    assert names == [f"snapshot_{step:06d}.vtk" for step in steps]
    assert (out_dir / "per_step.csv").exists()
    assert (out_dir / "summary.txt").exists()


def test_run_seed_flag_is_gone(tmp_path, capsys):
    cfg_path = tmp_path / "run.cfg"
    write_config_file(tiny_config(), str(cfg_path))
    with pytest.raises(SystemExit) as exit_info:
        main(["run", str(cfg_path), "--seed", "1", "--output-dir", str(tmp_path / "out")])
    assert exit_info.value.code == 2
    assert "--seed" in capsys.readouterr().err


def test_run_bad_profile_is_config_error(tmp_path, capsys):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(serialize_config(tiny_config()).replace("T_width = 0.2", "T_width = 0.0"))
    assert main(["run", str(cfg_path), "--output-dir", str(tmp_path / "out")]) == 2
    assert "width must be positive" in capsys.readouterr().err


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_run_threads_below_one_is_usage_error(tmp_path, capsys, threads):
    out_dir = tmp_path / "out"
    with pytest.raises(SystemExit) as exit_info:
        main(["run", "--preset", "lumping-comparison", "--threads", threads,
              "--output-dir", str(out_dir)])
    assert exit_info.value.code == 2
    assert "--threads: must be at least 1" in capsys.readouterr().err
    assert not out_dir.exists()


def test_compare_rejects_threads(tmp_path, capsys):
    # compare runs its two configs serially; it has no --threads to ignore
    cfg_path = tmp_path / "run.cfg"
    write_config_file(tiny_config(), str(cfg_path))
    out_dir = tmp_path / "cmp"
    with pytest.raises(SystemExit) as exit_info:
        main(["compare", str(cfg_path), str(cfg_path), "--threads", "8",
              "--output-dir", str(out_dir)])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --threads 8" in capsys.readouterr().err
    assert not out_dir.exists()


def test_run_negative_snapshot_every_is_config_error(tmp_path, capsys):
    cfg_path = tmp_path / "run.cfg"
    write_config_file(tiny_config(), str(cfg_path))
    out_dir = tmp_path / "out"
    assert main(["run", str(cfg_path), "--snapshot-every", "-5", "--output-dir", str(out_dir)]) == 2
    assert "snapshot_every must be nonnegative" in capsys.readouterr().err
    assert not out_dir.exists()


@BAD_MODEL_OR_SOLVER_INPUT
def test_run_bad_model_or_solver_input_is_config_error(tmp_path, capsys, old, new, match):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(serialize_config(tiny_config()).replace(old, new))
    assert main(["run", str(cfg_path), "--output-dir", str(tmp_path / "out")]) == 2
    assert match in capsys.readouterr().err


@pytest.mark.parametrize("old, new", [
    ("tf = 0.03", "tf = inf"),
    ("dt = 0.01", "dt = nan"),
], ids=["inf-tf", "nan-dt"])
def test_run_non_finite_time_is_config_error(tmp_path, capsys, old, new):
    cfg_path = tmp_path / "run.cfg"
    text = serialize_config(tiny_config())
    assert old in text
    cfg_path.write_text(text.replace(old, new))
    assert main(["run", str(cfg_path), "--output-dir", str(tmp_path / "out")]) == 2
    assert "dt and tf must be finite" in capsys.readouterr().err


def test_run_unknown_key_is_config_error(tmp_path, capsys):
    cfg_path = tmp_path / "run.cfg"
    # a misspelt key, and the key of the removed Jacobi option
    for old, new, key in (("tol = 1e-12", "tolerance = 1e-2", "tolerance"),
                          ("maxit = 0", "maxit = 0\njacobi = false", "jacobi")):
        cfg_path.write_text(serialize_config(tiny_config()).replace(old, new))
        assert main(["run", str(cfg_path), "--output-dir", str(tmp_path / "out")]) == 2
        assert f"unknown key '{key}' in section [solver]" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


def test_cg_nonconvergence_exits_1(tmp_path, capsys):
    cfg_path = tmp_path / "run.cfg"
    text = serialize_config(tiny_config())
    assert "tol = 1e-12\nmaxit = 0\n" in text
    cfg_path.write_text(text.replace("tol = 1e-12\nmaxit = 0\n", "tol = 1e-14\nmaxit = 1\n"))
    assert main(["run", str(cfg_path), "--output-dir", str(tmp_path / "out")]) == 1
    assert "numerical failure: step 1: CG did not converge" in capsys.readouterr().err


@pytest.mark.parametrize("variant, message", [
    (SchemeVariant.IMEX_LUMPED, "system matrix has a non-finite entry in row"),
    (SchemeVariant.EXPLICIT_LUMPED, "system matrix has a non-finite entry in row"),
    (SchemeVariant.IMEX_CONSISTENT, "BiCGSTAB residual is not finite at iteration 0"),
], ids=["imex-lumped", "explicit-lumped", "imex-consistent"])
def test_non_finite_system_is_numerical_failure(tmp_path, capsys, variant, message):
    # Finite diffusivities whose sums in the stiffness overflow to infinity.
    from dataclasses import replace

    cfg = tiny_config(variant=variant)
    cfg = replace(cfg, params=replace(cfg.params, kappa1=1e308, kappa0=1e308))
    cfg_path = tmp_path / "run.cfg"
    write_config_file(cfg, str(cfg_path))
    assert main(["run", str(cfg_path), "--output-dir", str(tmp_path / "out")]) == 1
    assert f"numerical failure: step 1: {message}" in capsys.readouterr().err


def test_overflowing_right_hand_side_is_numerical_failure(tmp_path, capsys):
    # A finite growth rate whose reaction load has a norm beyond the float range.
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(serialize_config(tiny_config()).replace("rho = 1.0", "rho = 1e308"))
    assert main(["run", str(cfg_path), "--output-dir", str(tmp_path / "out")]) == 1
    assert ("numerical failure: step 1: CG right-hand side norm is not finite"
            in capsys.readouterr().err)


def test_diverging_explicit_run_is_numerical_failure(tmp_path, capsys):
    # The README config on the comparison scheme with rates and a step that
    # make it diverge: max |T| is 8.1e128 after step 7, and the explicit
    # reactions of step 8 overflow. That is a numerical failure, reported on
    # one stderr line without a RuntimeWarning, not a config error.
    text = readme_config_example()
    for old, new in [("variant = imex-lumped", "variant = explicit-lumped"),
                     ("rho = 1.0", "rho = 2.0"), ("alpha = 0.8", "alpha = 2.0"),
                     ("dt = 0.01", "dt = 10.0"), ("tf = 1.0", "tf = 100.0")]:
        assert f"\n{old}\n" in text
        text = text.replace(f"\n{old}\n", f"\n{new}\n")
    cfg_path = tmp_path / "diverging.cfg"
    cfg_path.write_text(text)
    assert main(["run", str(cfg_path), "--output-dir", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: step 8: ") and err.count("\n") == 1


def test_overflowing_split_nodal_update_is_numerical_failure(tmp_path, capsys):
    # The README config with a vasculature growth rate and a step whose
    # product overflows: imex-lumped's vasculature update of step 1 is
    # inf / inf. The whole step runs under the solvers' floating-point
    # policy, so that is one stderr line and no RuntimeWarning.
    text = readme_config_example()
    for old, new in [("gamma = 0.008", "gamma = 1e300"), ("dt = 0.01", "dt = 1e10"),
                     ("tf = 1.0", "tf = 1e10")]:
        assert f"\n{old}\n" in text
        text = text.replace(f"\n{old}\n", f"\n{new}\n")
    cfg_path = tmp_path / "overflow.cfg"
    cfg_path.write_text(text)
    assert main(["run", str(cfg_path), "--output-dir", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: step 1: ") and err.count("\n") == 1


def test_gaussian_center_far_off_the_mesh_is_quiet(tmp_path, capsys):
    # A center 1e200 away overflows r**2 to inf, and exp(-inf) leaves the
    # profile at its base level, 0, without a RuntimeWarning.
    text = readme_config_example()
    assert "\nT_center_x = 0.5\n" in text
    cfg_path = tmp_path / "far.cfg"
    cfg_path.write_text(text.replace("\nT_center_x = 0.5\n", "\nT_center_x = 1e200\n"))
    out_dir = tmp_path / "out"
    assert main(["run", str(cfg_path), "--output-dir", str(out_dir)]) == 0
    assert capsys.readouterr().err == ""
    with open(out_dir / "per_step.csv", newline="") as f:
        first = next(csv.DictReader(f))
    assert (first["step"], float(first["minT"]), float(first["maxT"])) == ("0", 0.0, 0.0)


def test_subnormal_necrosis_rates_give_a_quiet_far_envelope(tmp_path, capsys):
    # The far-from-K tumor envelope's forcing term once divided by c - b,
    # here 9.5e-311, overflowing to inf * 0 = nan and a warning.
    text = readme_config_example()
    for old, new in [("beta1 = 0.8", "beta1 = 2e-310"), ("beta2 = 0.8", "beta2 = 1e-310")]:
        assert f"\n{old}\n" in text
        text = text.replace(f"\n{old}\n", f"\n{new}\n")
    cfg_path = tmp_path / "subnormal.cfg"
    cfg_path.write_text(text)
    out_dir = tmp_path / "out"
    assert main(["run", str(cfg_path), "--output-dir", str(out_dir)]) == 0
    assert capsys.readouterr().err == ""
    (far,) = [line for line in (out_dir / "summary.txt").read_text().splitlines()
              if line.startswith("envelope[far-from-K]: ")]
    assert "holds=True " in far and "worst_T_margin=0 " in far


@pytest.mark.parametrize("variant", ["imex-lumped", "explicit-lumped"])
def test_run_with_overflowing_summary_diagnostics_is_quiet(tmp_path, capsys, variant):
    # The README config with a huge growth rate and a long step finishes, and
    # its summary overflows: the near-K tumor envelope has a negative rate, and
    # explicit-lumped's final reactions exceed the float range. Both are
    # evaluated without a RuntimeWarning; an overflowed envelope is +inf, a
    # vacuous upper bound, and an overflowed residual is reported as inf.
    text = readme_config_example()
    for old, new in [("variant = imex-lumped", f"variant = {variant}"), ("rho = 1.0", "rho = 1e6"),
                     ("alpha = 0.8", "alpha = 2.0"), ("dt = 0.01", "dt = 20"),
                     ("tf = 1.0", "tf = 100")]:
        assert f"\n{old}\n" in text
        text = text.replace(f"\n{old}\n", f"\n{new}\n")
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(text)
    out_dir = tmp_path / "out"
    assert main(["run", str(cfg_path), "--output-dir", str(out_dir)]) == 0
    assert capsys.readouterr().err == ""
    summary = (out_dir / "summary.txt").read_text().splitlines()
    assert summary[6].startswith("envelope[near-K]: holds=False ")
    assert summary[7].endswith("residual=inf") == (variant == "explicit-lumped")


@pytest.mark.parametrize("mesh_text, message", [
    ("3 1\n0.0 0.0\nnan 0.0\n0.0 1.0\n0 1 2\n", "non-finite"),
    ("4 1\n0.0 0.0\n1.0 0.0\n0.0 1.0\n5.0 5.0\n0 1 2\n", "belongs to no element"),
], ids=["nan-coordinate", "unused-vertex"])
def test_bad_mesh_is_config_error(tmp_path, capsys, mesh_text, message):
    from dataclasses import replace

    from tumorfem.config import MeshSpec

    mesh_path = tmp_path / "bad.txt"
    mesh_path.write_text(mesh_text)
    assert main(["check-mesh", str(mesh_path)]) == 2
    assert message in capsys.readouterr().err
    cfg_path = tmp_path / "run.cfg"
    write_config_file(replace(tiny_config(), mesh=MeshSpec(path=str(mesh_path))), str(cfg_path))
    assert main(["run", str(cfg_path), "--output-dir", str(tmp_path / "out")]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("command", ["check-mesh", "run"])
def test_mesh_whose_geometry_overflows_is_config_error(tmp_path, capsys, command):
    # Finite coordinates whose squared edge lengths overflow once gave h=inf
    # and a non-obtuse audit from check-mesh, with RuntimeWarnings.
    from dataclasses import replace

    from tumorfem.config import MeshSpec

    mesh_path = tmp_path / "huge.txt"
    mesh_path.write_text("4 2\n0 0\n1e200 0\n1e200 1e200\n0 1e200\n0 1 2\n0 2 3\n")
    out_dir = tmp_path / "out"
    if command == "check-mesh":
        args = ["check-mesh", str(mesh_path)]
    else:
        cfg_path = tmp_path / "run.cfg"
        write_config_file(replace(tiny_config(), mesh=MeshSpec(path=str(mesh_path))), str(cfg_path))
        args = ["run", str(cfg_path), "--output-dir", str(out_dir)]
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: element 0 has an edge whose squared length is not finite\n"
    assert not (out_dir / "per_step.csv").exists()


@pytest.mark.parametrize("command", ["check-mesh", "run"])
def test_mesh_with_subnormal_areas_is_config_error(tmp_path, capsys, command):
    # The unit-square mesh scaled by 1e-160 has subnormal doubled areas. It
    # once passed check-mesh as non-obtuse, and run failed at step 1 (exit 1)
    # on a stiffness whose gradient products had overflowed.
    from dataclasses import replace

    from tumorfem.config import MeshSpec

    mesh = build_structured_mesh(4, 4, 1.0, 1.0)
    mesh_path = tmp_path / "tiny.txt"
    write_mesh(replace(mesh, nodes=mesh.nodes * 1e-160), mesh_path)
    out_dir = tmp_path / "out"
    if command == "check-mesh":
        args = ["check-mesh", str(mesh_path)]
    else:
        cfg_path = tmp_path / "run.cfg"
        write_config_file(replace(tiny_config(), mesh=MeshSpec(path=str(mesh_path))), str(cfg_path))
        args = ["run", str(cfg_path), "--output-dir", str(out_dir)]
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: element 0 is so small that its basis gradient products "
                            "are not finite\n")
    assert not (out_dir / "per_step.csv").exists()


def test_run_missing_config_is_error(capsys):
    assert main(["run"]) == 2
    assert "config" in capsys.readouterr().err


def test_run_bad_config_is_error(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("[mesh]\ntype = sphere\n")
    assert main(["run", str(bad)]) == 2


def test_preset_lumping_comparison_runs(tmp_path, capsys):
    out_dir = tmp_path / "runs"
    assert main(["run", "--preset", "lumping-comparison", "--output-dir", str(out_dir)]) == 0
    assert (out_dir / "lumping-imex-lumped" / "per_step.csv").exists()
    assert (out_dir / "lumping-imex-consistent" / "per_step.csv").exists()


def test_preset_round_trip_bit_identical_csv(tmp_path):
    # preset -> serialized config file -> run must reproduce the direct
    # preset run byte for byte
    cfg = build_preset("lumping-comparison")[0]
    direct_dir = tmp_path / "direct"
    from dataclasses import replace

    from tumorfem.output import write_run_outputs
    from tumorfem.config import OutputOptions
    from tumorfem.scheme import run

    write_run_outputs(run(replace(cfg, output=OutputOptions(directory=str(direct_dir)))))
    cfg_path = tmp_path / "preset.cfg"
    write_config_file(cfg, str(cfg_path))
    file_dir = tmp_path / "fromfile"
    assert main(["run", str(cfg_path), "--output-dir", str(file_dir)]) == 0
    # the library call writes the same CSV and the same full summary as the CLI
    for name in ("per_step.csv", "summary.txt"):
        assert (direct_dir / name).read_bytes() == (file_dir / name).read_bytes()
    assert "envelope[far-from-K]" in (direct_dir / "summary.txt").read_text()


def test_library_writer_default_directory_matches_cli(tmp_path, monkeypatch):
    # Default output options, and a config's empty `directory =`, write to
    # the current directory the bytes the CLI writes under --output-dir.
    from tumorfem.output import write_run_outputs
    from tumorfem.scheme import run

    cfg = build_preset("lumping-comparison")[0]
    cli_dir = tmp_path / "cli" / cfg.label
    assert main(["run", "--preset", "lumping-comparison", "--output-dir", str(cli_dir.parent)]) == 0
    cfg_path = tmp_path / "empty-directory.cfg"
    cfg_path.write_text(serialize_config(cfg).replace("directory = .\n", "directory =\n"))
    for cwd, write in [
        (tmp_path / "library", lambda: write_run_outputs(run(cfg))),
        (tmp_path / "config", lambda: main(["run", str(cfg_path)])),
    ]:
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        write()
        for name in ("per_step.csv", "summary.txt"):
            assert (cwd / name).read_bytes() == (cli_dir / name).read_bytes()


def test_library_snapshots_match_cli(tmp_path):
    # run(cfg, on_step=prepare_outputs(cfg)) and write_run_outputs write the
    # files `tumorfem run` writes, snapshots under a nested prefix included.
    from tumorfem.config import OutputOptions
    from tumorfem.output import prepare_outputs, write_run_outputs
    from tumorfem.scheme import run

    out = OutputOptions(directory=str(tmp_path / "library"), summary_name="sub/s.txt",
                        snapshot_every=3, vtk_prefix="vtk/snap")
    cfg = tiny_config(tf=0.04, output=out)
    write_run_outputs(run(cfg, on_step=prepare_outputs(cfg)))
    write_config_file(cfg, str(tmp_path / "run.cfg"))
    assert main(["run", str(tmp_path / "run.cfg"), "--output-dir", str(tmp_path / "cli")]) == 0
    library = _files(tmp_path / "library")
    assert sorted(library) == ["per_step.csv", "sub/s.txt", "vtk/snap_000000.vtk",
                               "vtk/snap_000003.vtk", "vtk/snap_000004.vtk"]
    assert library == _files(tmp_path / "cli")


def test_library_run_without_snapshot_writer_leaves_no_prefix_directory(tmp_path):
    from tumorfem.config import OutputOptions
    from tumorfem.output import write_run_outputs
    from tumorfem.scheme import run

    out_dir = tmp_path / "out"
    write_run_outputs(run(tiny_config(output=OutputOptions(
        directory=str(out_dir), snapshot_every=1, vtk_prefix="vtk/snap"))))
    assert sorted(p.name for p in out_dir.iterdir()) == ["per_step.csv", "summary.txt"]


def test_run_config_path_with_preset_is_usage_error(tmp_path, capsys):
    out_dir = tmp_path / "out"
    with pytest.raises(SystemExit) as exit_info:
        main(["run", str(tmp_path / "missing.cfg"), "--preset", "lumping-comparison",
              "--output-dir", str(out_dir)])
    assert exit_info.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err
    assert not out_dir.exists()


def _files(root):
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in root.rglob("*") if p.is_file()}


def test_preset_threads_match_serial(tmp_path, capsys):
    out1 = tmp_path / "serial"
    out2 = tmp_path / "parallel"
    argv = ["run", "--preset", "lumping-comparison", "--snapshot-every", "10"]
    assert main([*argv, "--output-dir", str(out1)]) == 0
    serial_stdout = capsys.readouterr().out
    assert main([*argv, "--output-dir", str(out2), "--threads", "2"]) == 0
    assert capsys.readouterr().out == serial_stdout
    assert serial_stdout.count("\n") == 2
    serial = _files(out1)
    # per run: CSV, summary and the snapshots of steps 0, 10, ..., 100
    assert len(serial) == 2 * (2 + 11)
    assert _files(out2) == serial


def test_threads_start_at_most_one_worker_per_run(tmp_path, monkeypatch, capsys):
    from types import SimpleNamespace

    from tumorfem import cli

    requested = []

    class FakePool:
        # maps in this process, so the test starts no worker
        def __init__(self, processes):
            requested.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return False

        def map(self, fn, items):
            return [fn(item) for item in items]

    monkeypatch.setattr(cli, "multiprocessing", SimpleNamespace(Pool=FakePool))
    out_dir = tmp_path / "runs"
    assert main(["run", "--preset", "lumping-comparison", "--threads", "64",
                 "--output-dir", str(out_dir)]) == 0
    assert requested == [2]
    assert capsys.readouterr().out.startswith("lumping-imex-lumped: 100 steps")
    # one run: no pool at all
    cfg_path = tmp_path / "run.cfg"
    write_config_file(tiny_config(), str(cfg_path))
    assert main(["run", str(cfg_path), "--threads", "4", "--output-dir", str(tmp_path / "one")]) == 0
    assert requested == [2]
    assert (tmp_path / "one" / "summary.txt").exists()


@pytest.fixture
def run_calls(monkeypatch):
    """The labels of the configs ``cli.run`` is called with, in call order."""
    from tumorfem import cli

    calls = []
    real_run = cli.run

    def counting_run(*args, **kwargs):
        calls.append(args[0].label)
        return real_run(*args, **kwargs)

    monkeypatch.setattr(cli, "run", counting_run)
    return calls


@pytest.mark.parametrize("command", ["run", "compare"])
def test_unusable_output_dir_fails_before_the_run(tmp_path, run_calls, capsys, command):
    blocker = tmp_path / "file"
    blocker.write_text("")
    cfg_path = tmp_path / "run.cfg"
    write_config_file(tiny_config(), str(cfg_path))
    configs = [str(cfg_path)] * (2 if command == "compare" else 1)
    assert main([command, *configs, "--output-dir", str(blocker / "sub")]) == 2
    assert "error:" in capsys.readouterr().err
    assert run_calls == []


@pytest.mark.parametrize("width", ["1e200", "1e-200"],
                         ids=["square-overflows", "square-underflows"])
def test_gaussian_width_with_unusable_square_is_config_error(tmp_path, run_calls, capsys, width):
    text = readme_config_example()
    assert "T_width = 0.015\n" in text
    text = text.replace("T_width = 0.015\n", f"T_width = {width}\n")
    with pytest.raises(ConfigError, match=r"width must be positive with 0 < width\*\*2 < inf"):
        parse_config(text)
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(text)
    out_dir = tmp_path / "out"
    assert main(["run", str(cfg_path), "--output-dir", str(out_dir)]) == 2
    assert "width must be positive" in capsys.readouterr().err
    assert run_calls == []
    assert not (out_dir / "per_step.csv").exists()


def test_gaussian_width_with_subnormal_square_evaluates_without_warning():
    # 1e-160 squared is subnormal but nonzero, so the width is accepted; every
    # node off the center then overflows the exponent's quotient to inf, which
    # the suite's error::RuntimeWarning filter would turn into an error.
    text = readme_config_example().replace("T_width = 0.015\n", "T_width = 1e-160\n")
    cfg = parse_config(text)
    assert cfg.initial.T.width == 1e-160
    mesh = build_structured_mesh(4, 4, 1.0, 1.0)
    values = cfg.initial.T.evaluate(mesh.nodes, cfg.params.K)
    center = (mesh.nodes == (0.5, 0.5)).all(axis=1)
    assert values[center].tolist() == [1.0]
    assert not values[~center].any()


def test_output_names_under_a_new_directory(tmp_path, capsys):
    text = readme_config_example()
    assert "\nsummary = summary.txt\n" in text
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(text.replace("\nsummary = summary.txt\n", "\nsummary = sub/s.txt\n")
                        .replace("\ncsv = per_step.csv\n", "\ncsv = a/b/steps.csv\n"))
    out_dir = tmp_path / "out"
    assert main(["run", str(cfg_path), "--output-dir", str(out_dir)]) == 0
    assert capsys.readouterr().err == ""
    assert (out_dir / "sub" / "s.txt").read_text().startswith("label=demo\n")
    assert (out_dir / "a" / "b" / "steps.csv").exists()


def test_vtk_prefix_under_a_new_directory(tmp_path, monkeypatch, capsys):
    # The prefix's directory is created with the output directory, before
    # the mesh is built, as for the csv and summary names.
    from tumorfem import cli

    text = readme_config_example()
    for old, new in [("snapshot_every = 0", "snapshot_every = 50"),
                     ("vtk_prefix = snapshot", "vtk_prefix = sub/snap")]:
        assert f"\n{old}\n" in text
        text = text.replace(f"\n{old}\n", f"\n{new}\n")
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(text)
    out_dir = tmp_path / "out"
    real_run = cli.run

    def run_after_directories(cfg, **kwargs):
        assert (out_dir / "sub").is_dir()
        return real_run(cfg, **kwargs)

    monkeypatch.setattr(cli, "run", run_after_directories)
    assert main(["run", str(cfg_path), "--output-dir", str(out_dir)]) == 0
    assert capsys.readouterr().err == ""
    assert sorted(p.name for p in (out_dir / "sub").iterdir()) == [
        "snap_000000.vtk", "snap_000050.vtk", "snap_000100.vtk"]


@pytest.mark.parametrize("old, new, match", [
    ("csv = per_step.csv", "csv =", r"^output file name '' does not name a file$"),
    ("summary = summary.txt", "summary = .", r"^output file name '\.' does not name a file$"),
    ("csv = per_step.csv", "csv = sub/..", r"^output file name 'sub/\.\.' does not name a file$"),
    ("summary = summary.txt", "summary = per_step.csv",
     r"^csv and summary are both written to 'per_step\.csv'$"),
    ("summary = summary.txt", "summary = ./per_step.csv",
     r"^csv and summary are both written to 'per_step\.csv'$"),
], ids=["empty-csv", "dot-summary", "dot-dot-csv", "summary-is-csv", "summary-is-csv-dotted"])
def test_unusable_output_file_names_are_config_errors(tmp_path, run_calls, capsys,
                                                      old, new, match):
    text = serialize_config(tiny_config())
    assert f"\n{old}\n" in text
    text = text.replace(f"\n{old}\n", f"\n{new}\n")
    with pytest.raises(ConfigError, match=match):
        parse_config(text)
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(text)
    out_dir = tmp_path / "out"
    assert main(["run", str(cfg_path), "--output-dir", str(out_dir)]) == 2
    assert "error: " in capsys.readouterr().err
    assert run_calls == []
    assert not out_dir.exists()


@pytest.mark.parametrize("variant", list(SchemeVariant), ids=lambda v: v.value)
def test_summary_file_is_run_summary_lines(tmp_path, variant):
    # every line of summary.txt, the header included, comes from run_summary_lines
    from tumorfem.diagnostics import run_summary_lines
    from tumorfem.scheme import run

    cfg = tiny_config(variant=variant)
    cfg_path = tmp_path / "run.cfg"
    write_config_file(cfg, str(cfg_path))
    assert main(["run", str(cfg_path), "--output-dir", str(tmp_path / "out")]) == 0
    lines = run_summary_lines(run(cfg))
    assert lines[:3] == ["label=run", f"variant={variant.value}", "steps=3"]
    assert (tmp_path / "out" / "summary.txt").read_text() == "".join(line + "\n" for line in lines)


def test_compare_identical_configs(tmp_path):
    cfg_path = tmp_path / "run.cfg"
    write_config_file(tiny_config(), str(cfg_path))
    out_dir = tmp_path / "cmp"
    assert main(["compare", str(cfg_path), str(cfg_path), "--output-dir", str(out_dir)]) == 0
    lines = (out_dir / "compare.csv").read_text().splitlines()
    ncols = (len(lines[0].split(",")) - 2) // 2
    for line in lines[1:]:
        cells = line.split(",")
        assert cells[2 : 2 + ncols] == cells[2 + ncols :]


def test_compare_grid_mismatch(tmp_path, capsys):
    a = tmp_path / "a.cfg"
    b = tmp_path / "b.cfg"
    write_config_file(tiny_config(), str(a))
    write_config_file(tiny_config(tf=0.02), str(b))
    assert main(["compare", str(a), str(b)]) == 2
    assert "time grids" in capsys.readouterr().err


def test_preset_tables_match_reported_values():
    bounds = build_preset("bounds-comparison")
    assert {c.variant for c in bounds} == {
        SchemeVariant.IMEX_LUMPED,
        SchemeVariant.EXPLICIT_LUMPED,
    }
    p = bounds[0].params
    assert (p.kappa1, p.kappa0, p.rho) == (8e-5, 8e-5, 1.0)
    assert (p.alpha, p.beta1, p.beta2) == (0.8, 0.8, 0.8)
    assert (p.gamma, p.delta, p.K) == (0.008, 0.8, 1.0)
    assert bounds[0].dt == 1e-2 and bounds[0].tf == 1.0
    assert bounds[0].mesh.nx == 40 and bounds[0].mesh.lx == 1.0
    assert all(c.initial.Phi.value == 0.5 for c in bounds)

    energy = build_preset("energy-sweep")
    assert len(energy) == 22
    kfs = sorted({c.n_steps for c in energy})
    assert kfs == [10, 60, 110, 160, 210, 260, 310, 360, 410, 460, 510]
    pe = energy[0].params
    assert (pe.kappa1, pe.kappa0) == (2.9e-7, 2.9e-7)
    assert (pe.alpha, pe.beta1, pe.gamma) == (0.0029, 0.0029, 0.0029)
    assert (pe.beta2, pe.delta) == (0.0, 0.00029)
    assert all(c.tf == 0.01 for c in energy)

    lumping = build_preset("lumping-comparison")
    pl = lumping[0].params
    assert (pl.kappa1, pl.kappa0, pl.rho) == (8e-4, 8e-4, 1.0)
    assert (pl.alpha, pl.beta1, pl.beta2, pl.gamma, pl.delta) == (0, 0, 0, 0, 0)
    assert lumping[0].mesh.nx == 10
    assert {c.variant for c in lumping} == {
        SchemeVariant.IMEX_LUMPED,
        SchemeVariant.IMEX_CONSISTENT,
    }

    # Every run, in order, by the label perfbench/reference.json is keyed by
    # and its step, tf / steps.
    kfs = (10, 60, 110, 160, 210, 260, 310, 360, 410, 460, 510)
    assert [(c.label, c.dt) for c in bounds + energy + lumping] == [
        ("bounds-imex-lumped", 1e-2), ("bounds-explicit-lumped", 1e-2),
        *[(f"energy-{variant}-Kf{kf:03d}", 0.01 / kf)
          for kf in kfs for variant in ("imex-lumped", "explicit-lumped")],
        ("lumping-imex-lumped", 1e-2), ("lumping-imex-consistent", 1e-2),
    ]


def test_energy_sweep_reads_its_step_counts_when_built(monkeypatch):
    from tumorfem import cli

    monkeypatch.setattr(cli, "ENERGY_SWEEP_STEPS", (10,))
    assert [(c.label, c.n_steps) for c in build_preset("energy-sweep")] == [
        ("energy-imex-lumped-Kf010", 10), ("energy-explicit-lumped-Kf010", 10)]
