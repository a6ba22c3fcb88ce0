import pytest

from tumorfem.cli import build_preset, main
from tumorfem.config import SchemeVariant
from tumorfem.mesh import build_structured_mesh, triangulation_from_arrays, write_mesh

from oracles import serialize_config, write_config_file
from test_output_config import BAD_MODEL_OR_SOLVER_INPUT, tiny_config


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


def test_snapshots_written(tmp_path):
    from tumorfem.config import OutputOptions

    cfg_path = tmp_path / "run.cfg"
    write_config_file(tiny_config(tf=0.04, output=OutputOptions(snapshot_every=2)), str(cfg_path))
    out_dir = tmp_path / "out"
    assert main(["run", str(cfg_path), "--output-dir", str(out_dir)]) == 0
    names = sorted(p.name for p in out_dir.glob("*.vtk"))
    assert names == ["snapshot_000000.vtk", "snapshot_000002.vtk", "snapshot_000004.vtk"]
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


def test_unusable_output_dir_fails_before_the_run(tmp_path, monkeypatch, capsys):
    from tumorfem import cli

    calls = []
    real_run = cli.run

    def counting_run(*args, **kwargs):
        calls.append(args[0].label)
        return real_run(*args, **kwargs)

    monkeypatch.setattr(cli, "run", counting_run)
    blocker = tmp_path / "file"
    blocker.write_text("")
    cfg_path = tmp_path / "run.cfg"
    write_config_file(tiny_config(), str(cfg_path))
    assert main(["run", str(cfg_path), "--output-dir", str(blocker / "sub")]) == 2
    assert "error:" in capsys.readouterr().err
    assert calls == []


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
