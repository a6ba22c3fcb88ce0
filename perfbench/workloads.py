"""The three benchmark workloads, driven through the package's public entry points.

* ``fine-imex``: ``tumorfem.scheme.run`` on the ``bounds-comparison``
  imex-lumped config refined to nx = ny = 320 (n = 103,041), 40 steps, no
  output. The seed moves the tumor and necrosis Gaussian centers together
  by whole mesh cells inside [0.35, 0.65]^2; seed 0 keeps the preset's
  (0.5, 0.5). Each cell is split along the same diagonal, so a whole-cell
  shift is a symmetry of the mesh away from the boundary and every seed is
  checked against the same recorded diagnostics.
* ``energy-sweep``: ``tumorfem.cli.main(["run", "--preset", "energy-sweep",
  ...])`` as users run it: 22 runs, 5,720 steps, n = 1,681.
* ``paper-figures``: ``cli.main`` on ``bounds-comparison`` and then on
  ``lumping-comparison``, both with ``--snapshot-every 10``.

The CLI workloads run the presets as they are and ignore the seed.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
import traceback
from dataclasses import astuple, dataclass, replace

from tumorfem import cli, scheme
from tumorfem.scheme import MeshSpec, RunConfig, SchemeVariant

NAMES = ("fine-imex", "energy-sweep", "paper-figures")


@dataclass(frozen=True)
class RunOutcome:
    """One config's result in one pass: its per-step diagnostics or an error."""

    label: str
    variant: SchemeVariant
    K: float
    rows: tuple | None
    error: str = ""


def _row(values) -> tuple:
    # step and cg_iters are integers, every other diagnostic a float
    return tuple(int(v) if i in (0, 8) else float(v) for i, v in enumerate(values))


def read_csv_rows(path: str) -> tuple:
    with open(path, encoding="ascii") as f:
        next(f)
        return tuple(_row(line.rstrip("\n").split(",")) for line in f)


def fine_imex_config(seed: int, smoke: bool) -> RunConfig:
    base = cli.build_preset("bounds-comparison")[0]
    nx, steps = (32, 4) if smoke else (320, 40)
    if seed == 0:
        di = dj = 0
    else:
        rng = random.Random(seed)
        reach = round(0.15 * nx)
        di, dj = rng.randint(-reach, reach), rng.randint(-reach, reach)
    center = ((nx // 2 + di) / nx, (nx // 2 + dj) / nx)
    initial = replace(
        base.initial,
        T=replace(base.initial.T, center=center),
        N=replace(base.initial.N, center=center),
    )
    return replace(
        base,
        mesh=MeshSpec(nx=nx, ny=nx, lx=1.0, ly=1.0),
        tf=steps * base.dt,
        initial=initial,
        label="fine-imex-smoke" if smoke else "fine-imex",
    )


class Workload:
    def __init__(self, name: str, seed: int, smoke: bool):
        if name not in NAMES:
            raise ValueError(f"unknown workload {name!r}")
        self.name = name
        self.seed = seed
        self.smoke = smoke
        self.seeded = name == "fine-imex"
        if name == "fine-imex":
            self._presets = ()
            self.configs = [fine_imex_config(seed, smoke)]
        else:
            if name == "energy-sweep":
                self._presets = (("energy-sweep", ()),)
                if smoke:
                    # Two runs of the sweep instead of 22.
                    cli.ENERGY_SWEEP_STEPS = cli.ENERGY_SWEEP_STEPS[:1]
            else:
                snap = ("--snapshot-every", "10")
                self._presets = (("bounds-comparison", snap), ("lumping-comparison", snap))
            self.configs = [c for p, _ in self._presets for c in cli.build_preset(p)]
        self.steps = sum(c.n_steps for c in self.configs)

    def setup(self) -> None:
        """Run every config with tf = 0: mesh, audit, context and initial data."""
        for cfg in self.configs:
            scheme.run(replace(cfg, tf=0.0))

    def run_pass(self, workdir: str) -> list[RunOutcome]:
        """One pass of the workload; CLI outputs go under ``workdir``."""
        if not self._presets:
            return [self._run_direct(cfg) for cfg in self.configs]
        outcomes = []
        for preset, extra in self._presets:
            out = os.path.join(workdir, preset)
            argv = ["run", "--preset", preset, *extra, "--output-dir", out]
            error = ""
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    code = cli.main(argv)
                if code != 0:
                    error = f"tumorfem {' '.join(argv)} exited with {code}"
            except Exception:
                error = traceback.format_exc(limit=-3)
            for cfg in cli.build_preset(preset):
                rows, why = None, error
                if not error:
                    try:
                        rows = read_csv_rows(os.path.join(out, cfg.label, cfg.output.csv_name))
                    except OSError as exc:
                        why = f"no per-step output: {exc}"
                outcomes.append(RunOutcome(cfg.label, cfg.variant, cfg.params.K, rows, why))
        return outcomes

    @staticmethod
    def _run_direct(cfg: RunConfig) -> RunOutcome:
        try:
            report = scheme.run(cfg)
        except Exception:
            return RunOutcome(cfg.label, cfg.variant, cfg.params.K, None,
                              traceback.format_exc(limit=-3))
        rows = tuple(_row(astuple(d)) for d in report.steps)
        return RunOutcome(cfg.label, cfg.variant, cfg.params.K, rows)
