"""Where the two comparison schemes leave the bounds and the production scheme does not.

The presets show the claim at one dt, one mesh and one tumor seed each.
This module runs a grid around them, 20 steps per run: dt on the presets'
meshes, nx = 10 and 80 at dt = 1e-2, and seed widths 0.015 to 0.1.
``explicit-lumped`` runs with the bounds preset's parameters and
``imex-consistent`` with the lumping preset's, each beside ``imex-lumped``
on the same config. Run with ``-s`` to see the table.

``imex-lumped`` must keep ``0 <= T, Phi <= K``, ``N >= 0`` and ``N``
nondecreasing at every node and step. ``N`` has no upper bound: necrosis
grows past ``K`` (to 2.25 K at dt = 1 on the bounds parameters). Rounding
may lift ``T`` above ``K``; the upper bound allows ``ALLOWANCE`` relative
per step. A comparison scheme's minimum over ``T``, ``N`` and ``Phi`` must be
below 0 wherever the magnitude measured when the grid was drawn up
(``measured`` below) exceeds 1e-6.
"""

from dataclasses import replace

import numpy as np
import pytest

from tumorfem.cli import build_preset
from tumorfem.config import MeshSpec, SchemeVariant
from tumorfem.scheme import SchemeError, run

STEPS = 20
# Twice the largest per-step excess of T over max(K, max T^k) measured in
# 2,400 steps of runs at capacity (2 eps relative); no run of this grid
# shows any excess.
ALLOWANCE = 4 * np.finfo(float).eps

BOUNDS = ("bounds-comparison", SchemeVariant.EXPLICIT_LUMPED)
LUMPING = ("lumping-comparison", SchemeVariant.IMEX_CONSISTENT)

# (preset and comparison scheme, case, config changes, the comparison
# scheme's minimum as measured; None where it fails with an overflow). The
# dt 1e-2 rows are the presets' meshes and seed width 0.015 at that dt.
GRID = [
    (BOUNDS, "dt 1e-3", {"dt": 1e-3}, -1.7e-4),
    (BOUNDS, "dt 1e-2", {"dt": 1e-2}, -2.1e-2),
    (BOUNDS, "dt 1", {"dt": 1.0}, -1.3e-1),
    (BOUNDS, "dt 3", {"dt": 3.0}, None),
    (BOUNDS, "nx 10", {"dt": 1e-2, "nx": 10}, -2.7e-2),
    (BOUNDS, "nx 80", {"dt": 1e-2, "nx": 80}, -7.6e-5),
    (BOUNDS, "width 0.03", {"dt": 1e-2, "width": 0.03}, -2.2e-3),
    (BOUNDS, "width 0.06", {"dt": 1e-2, "width": 0.06}, -4.7e-8),
    (BOUNDS, "width 0.1", {"dt": 1e-2, "width": 0.1}, -2.7e-14),
    (LUMPING, "dt 1e-3", {"dt": 1e-3}, -2.4e-3),
    (LUMPING, "dt 1e-2", {"dt": 1e-2}, -1.3e-2),
    (LUMPING, "dt 30", {"dt": 30.0}, -2.1e-3),
    (LUMPING, "nx 80", {"dt": 1e-2, "nx": 80}, -2.2e-3),
    (LUMPING, "width 0.03", {"dt": 1e-2, "width": 0.03}, -1.3e-2),
    (LUMPING, "width 0.06", {"dt": 1e-2, "width": 0.06}, -9.1e-3),
    (LUMPING, "width 0.1", {"dt": 1e-2, "width": 0.1}, -3.2e-3),
]
IDS = [f"{preset.split('-')[0]}-{case.replace(' ', '-')}" for (preset, _), case, _, _ in GRID]


def grid_config(preset, variant, dt, nx=None, width=None):
    """The preset's run of ``variant`` for STEPS steps of ``dt``, on nx cells a side
    and with a tumor seed of ``width`` where given."""
    cfg = next(c for c in build_preset(preset) if c.variant is variant)
    cfg = replace(cfg, dt=dt, tf=STEPS * dt)
    if nx is not None:
        cfg = replace(cfg, mesh=MeshSpec(nx=nx, ny=nx, lx=1.0, ly=1.0))
    if width is not None:
        cfg = replace(cfg, initial=replace(cfg.initial, T=replace(cfg.initial.T, width=width)))
    return cfg


def production_run(cfg):
    """Run ``imex-lumped`` on ``cfg``: the steps that break a bound, and the minimum."""
    K, broken, lowest = cfg.params.K, [], []
    previous_n = None

    def check(mesh, state):
        nonlocal previous_n
        low = min(state.T.min(), state.N.min(), state.Phi.min())
        high = max(state.T.max(), state.Phi.max())
        grew = previous_n is None or (state.N >= previous_n).all()
        if not (low >= 0.0 and high <= K * (1.0 + ALLOWANCE) ** state.step and grew):
            broken.append(state.step)
        previous_n = state.N
        lowest.append(low)

    run(cfg, on_step=check)
    return broken, min(lowest)


def comparison_minimum(cfg):
    """The minimum over T, N and Phi of a run of ``cfg``, or the step that fails."""
    try:
        report = run(cfg)
    except SchemeError as exc:
        return f"fails at step {exc.step}"
    return min(min(d.min_t, d.min_n, d.min_phi) for d in report.steps)


@pytest.fixture(scope="module")
def table():
    """Per grid row: imex-lumped's broken steps and minimum, and the comparison minimum."""
    rows = {}
    print(f"\n{'run':<18} {'imex-lumped min':>16} {'comparison min':>17} {'measured':>10}")
    for row_id, ((preset, variant), _, changes, measured) in zip(IDS, GRID, strict=True):
        broken, low = production_run(grid_config(preset, SchemeVariant.IMEX_LUMPED, **changes))
        other = comparison_minimum(grid_config(preset, variant, **changes))
        rows[row_id] = broken, other
        shown = f"{other:.2e}" if isinstance(other, float) else other
        print(f"{row_id:<18} {low:>16.2e} {shown:>17} "
              f"{'overflow' if measured is None else f'{measured:.1e}':>10}")
    return rows


@pytest.mark.parametrize("row_id", IDS)
def test_imex_lumped_keeps_the_bounds(table, row_id):
    broken, _ = table[row_id]
    assert broken == []


@pytest.mark.parametrize("row_id, measured", [
    (row_id, g[3]) for row_id, g in zip(IDS, GRID) if g[3] is None or abs(g[3]) > 1e-6
])
def test_comparison_scheme_leaves_the_bounds(table, row_id, measured):
    _, other = table[row_id]
    if measured is None:
        # explicit-lumped's reactions overflow its right-hand side
        assert other == "fails at step 9"
    else:
        assert other < 0.0
