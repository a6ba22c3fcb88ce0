"""Positivity-preserving P1 finite-element simulator for a hybrid
tumor/necrosis/vasculature growth model with vasculature-dependent
nonlinear diffusion.

The production scheme combines a semi-implicit reaction splitting in time
with mass-lumped P1 elements on non-obtuse triangulations; by construction
its discrete fields respect the model's pointwise bounds at every node and
step. Two comparison variants (fully explicit reactions; no mass lumping)
are included because they visibly do not.
"""

from .scheme import run

__version__ = "0.1.0"

__all__ = ["run", "__version__"]
