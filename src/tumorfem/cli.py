"""Command-line interface.

Subcommands:

* ``run <config>`` or ``run --preset <name>`` executes one run (or a
  preset's bundle of runs) and writes CSV/VTK/summary files.
* ``check-mesh <file>`` audits a mesh file's angles; exit 0 iff non-obtuse.
* ``compare <configA> <configB>`` runs two configs on the same grid and
  writes a joined per-step CSV for side-by-side plotting.

Exit codes: 0 success, 1 numerical failure, 2 configuration or input
error. Runs inside a preset are independent; ``--threads N`` executes them
in up to N worker processes, at most one per run (default 1, fully
deterministic either way).
"""

from __future__ import annotations

import argparse
import multiprocessing
import os
import sys
from dataclasses import replace

from . import output as output_mod
from .config import (
    ConfigError,
    GaussianProfile,
    InitialConditions,
    MeshSpec,
    RunConfig,
    SchemeVariant,
    SolverOptions,
    parse_config_file,
)
from .mesh import audit_angles, read_mesh
from .model import ModelParams
from .scheme import SchemeError, run

EXIT_OK = 0
EXIT_NUMERICAL = 1
EXIT_CONFIG = 2

# Initial data shared by the experiment presets. The tumor seed is a narrow
# Gaussian at the domain center; necrosis starts near capacity with a small
# healthy pocket at the seed (the close-to-capacity regime of the decay
# envelopes); vasculature starts uniform at half capacity. Widths and
# centers are package choices, documented in the README.
_PRESET_INITIAL = InitialConditions(
    T=GaussianProfile(base=0.0, amplitude=1.0, center=(0.5, 0.5), width=0.015),
    N=GaussianProfile(base=1.0, amplitude=-0.05, center=(0.5, 0.5), width=0.05),
    Phi=GaussianProfile(base=0.5, amplitude=0.0),
)

_PRESET_SOLVER = SolverOptions(tol=1e-12)

TABLE_BOUNDS = ModelParams(
    kappa1=8e-5, kappa0=8e-5, rho=1.0, alpha=0.8, beta1=0.8, beta2=0.8,
    gamma=0.008, delta=0.8, K=1.0,
)
TABLE_ENERGY = ModelParams(
    kappa1=2.9e-7, kappa0=2.9e-7, rho=1.0, alpha=0.0029, beta1=0.0029,
    beta2=0.0, gamma=0.0029, delta=0.00029, K=1.0,
)
TABLE_LUMPING = ModelParams(
    kappa1=8e-4, kappa0=8e-4, rho=1.0, alpha=0.0, beta1=0.0, beta2=0.0,
    gamma=0.0, delta=0.0, K=1.0,
)

ENERGY_SWEEP_STEPS = (10, 60, 110, 160, 210, 260, 310, 360, 410, 460, 510)

_LUMPED_PAIR = (SchemeVariant.IMEX_LUMPED, SchemeVariant.EXPLICIT_LUMPED)
# One row per preset: label prefix, parameters, cells per side of the unit
# square, final time and schemes. The energy sweep runs ENERGY_SWEEP_STEPS,
# the others 100 steps.
_PRESETS = {
    "bounds-comparison": ("bounds", TABLE_BOUNDS, 40, 1.0, _LUMPED_PAIR),
    "energy-sweep": ("energy", TABLE_ENERGY, 40, 0.01, _LUMPED_PAIR),
    "lumping-comparison": ("lumping", TABLE_LUMPING, 10, 1.0,
                           (SchemeVariant.IMEX_LUMPED, SchemeVariant.IMEX_CONSISTENT)),
}
PRESET_NAMES = tuple(_PRESETS)


def build_preset(name: str) -> list[RunConfig]:
    """The bundled runs of one named experiment preset, labelled
    ``<prefix>-<variant>``, with ``-KfNNN`` for the step count of the sweep."""
    if name not in _PRESETS:
        raise ConfigError(f"unknown preset {name!r}; available: {', '.join(PRESET_NAMES)}")
    prefix, params, cells, tf, variants = _PRESETS[name]
    sweep = name == "energy-sweep"
    mesh = MeshSpec(nx=cells, ny=cells, lx=1.0, ly=1.0)
    return [
        RunConfig(mesh=mesh, params=params, dt=tf / steps, tf=tf, variant=variant,
                  initial=_PRESET_INITIAL, solver=_PRESET_SOLVER,
                  label=f"{prefix}-{variant.value}" + (f"-Kf{steps:03d}" if sweep else ""))
        for steps in (ENERGY_SWEEP_STEPS if sweep else (100,))
        for variant in variants
    ]


def _with_output(cfg: RunConfig, directory: str, args) -> RunConfig:
    """``cfg`` writing into ``directory``, snapshotting every ``--snapshot-every`` steps if
    given. The directory is created here, so an unusable one fails before any run."""
    every = cfg.output.snapshot_every if args.snapshot_every is None else args.snapshot_every
    cfg = replace(cfg, output=replace(cfg.output, directory=directory, snapshot_every=every))
    os.makedirs(cfg.output.directory, exist_ok=True)
    return cfg


def _run_and_summarize(cfg: RunConfig):
    """Run one config and write its CSV, summary and VTK snapshots."""
    report = run(cfg, on_step=output_mod.prepare_outputs(cfg))
    output_mod.write_run_outputs(report)
    return report


def _run_line(cfg: RunConfig) -> str:
    # Also the worker entry for --threads: a RunConfig pickles exactly.
    report = _run_and_summarize(cfg)
    return f"{cfg.label}: {cfg.n_steps} steps, energy={report.energy:.12g}"


def _cmd_run(args) -> int:
    configs = build_preset(args.preset) if args.preset else [parse_config_file(args.config)]
    prepared = []
    for cfg in configs:
        if len(configs) > 1:
            directory = os.path.join(args.output_dir or ".", cfg.label)
        else:
            # an explicit --output-dir wins over the config's own directory
            directory = args.output_dir or cfg.output.directory
        prepared.append(_with_output(cfg, directory, args))

    workers = min(args.threads, len(prepared))
    if workers > 1:
        with multiprocessing.Pool(processes=workers) as pool:
            lines = pool.map(_run_line, prepared)
    else:
        lines = map(_run_line, prepared)
    for line in lines:
        print(line)
    return EXIT_OK


def _cmd_check_mesh(args) -> int:
    mesh = read_mesh(args.mesh)
    rep = audit_angles(mesh)
    print(
        f"vertices={mesh.n_vertices} elements={mesh.n_triangles} h={mesh.h:.6g}\n"
        f"max(-cos angle)={rep.max_neg_cosine:.6g} worst_element={rep.worst_element}\n"
        f"strictly_acute={rep.strictly_acute} non_obtuse={rep.non_obtuse}"
    )
    if not rep.non_obtuse:
        print(
            f"element {rep.worst_element} has an obtuse angle", file=sys.stderr
        )
        return EXIT_NUMERICAL
    return EXIT_OK


def _cmd_compare(args) -> int:
    cfg_a = parse_config_file(args.config_a)
    cfg_b = parse_config_file(args.config_b)
    if cfg_a.mesh != cfg_b.mesh:
        print("error: configs use different meshes", file=sys.stderr)
        return EXIT_CONFIG
    if cfg_a.dt != cfg_b.dt or cfg_a.tf != cfg_b.tf:
        print("error: configs use different time grids", file=sys.stderr)
        return EXIT_CONFIG
    out_dir = args.output_dir or "."
    sides = [_with_output(cfg, os.path.join(out_dir, f"{cfg.label}-{side}"), args)
             for cfg, side in ((cfg_a, "a"), (cfg_b, "b"))]
    report_a, report_b = map(_run_and_summarize, sides)
    joined = os.path.join(out_dir, "compare.csv")
    output_mod.write_compare_csv(report_a, report_b, joined)
    print(f"wrote {joined}")
    return EXIT_OK


def _worker_count(text: str) -> int:
    count = int(text)
    if count < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {count}")
    return count


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="tumorfem", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--output-dir", default="", help="directory for CSV/VTK/summary files")
    common.add_argument("--snapshot-every", type=int, default=None, metavar="N",
                        help="write a VTK snapshot every N steps (0 disables)")

    p_run = sub.add_parser("run", parents=[common], help="execute a run or preset")
    p_run.add_argument("--threads", type=_worker_count, default=1, metavar="N",
                       help="worker processes for preset bundles, at most one per run (default 1)")
    source = p_run.add_mutually_exclusive_group(required=True)
    source.add_argument("config", nargs="?", default="", help="config file path")
    source.add_argument("--preset", choices=PRESET_NAMES, default="",
                        help="run a bundled experiment instead of a config file")
    p_run.set_defaults(func=_cmd_run)

    p_mesh = sub.add_parser("check-mesh", help="audit a mesh file's angles")
    p_mesh.add_argument("mesh", help="mesh file path")
    p_mesh.set_defaults(func=_cmd_check_mesh)

    p_cmp = sub.add_parser("compare", parents=[common], help="run two configs and join their CSVs")
    p_cmp.add_argument("config_a")
    p_cmp.add_argument("config_b")
    p_cmp.set_defaults(func=_cmd_compare)
    return ap


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SchemeError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
