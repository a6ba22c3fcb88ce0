import pytest

from tumorfem.cli import build_preset, main
from tumorfem.config import serialize_config, write_config_file
from tumorfem.mesh import build_structured_mesh, triangulation_from_arrays, write_mesh
from tumorfem.scheme import SchemeVariant

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
    from tumorfem.scheme import OutputOptions

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


@BAD_MODEL_OR_SOLVER_INPUT
def test_run_bad_model_or_solver_input_is_config_error(tmp_path, capsys, old, new, match):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(serialize_config(tiny_config()).replace(old, new))
    assert main(["run", str(cfg_path), "--output-dir", str(tmp_path / "out")]) == 2
    assert match in capsys.readouterr().err


@pytest.mark.parametrize("mesh_text, message", [
    ("3 1\n0.0 0.0\nnan 0.0\n0.0 1.0\n0 1 2\n", "non-finite"),
    ("4 1\n0.0 0.0\n1.0 0.0\n0.0 1.0\n5.0 5.0\n0 1 2\n", "belongs to no element"),
], ids=["nan-coordinate", "unused-vertex"])
def test_bad_mesh_is_config_error(tmp_path, capsys, mesh_text, message):
    from dataclasses import replace

    from tumorfem.scheme import MeshSpec

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
    from tumorfem.scheme import OutputOptions, run

    write_run_outputs(run(replace(cfg, output=OutputOptions(directory=str(direct_dir)))))
    cfg_path = tmp_path / "preset.cfg"
    write_config_file(cfg, str(cfg_path))
    file_dir = tmp_path / "fromfile"
    assert main(["run", str(cfg_path), "--output-dir", str(file_dir)]) == 0
    direct = (direct_dir / "per_step.csv").read_bytes()
    from_file = (file_dir / "per_step.csv").read_bytes()
    assert direct == from_file


def test_preset_threads_match_serial(tmp_path):
    out1 = tmp_path / "serial"
    out2 = tmp_path / "parallel"
    assert main(["run", "--preset", "lumping-comparison", "--output-dir", str(out1)]) == 0
    assert main(
        ["run", "--preset", "lumping-comparison", "--output-dir", str(out2), "--threads", "2"]
    ) == 0
    for name in ("lumping-imex-lumped", "lumping-imex-consistent"):
        a = (out1 / name / "per_step.csv").read_bytes()
        b = (out2 / name / "per_step.csv").read_bytes()
        assert a == b


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
