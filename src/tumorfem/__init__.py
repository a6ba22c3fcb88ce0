"""Positivity-preserving P1 finite-element simulator for a hybrid
tumor/necrosis/vasculature growth model with vasculature-dependent
nonlinear diffusion.

The production scheme combines a semi-implicit reaction splitting in time
with mass-lumped P1 elements on non-obtuse triangulations; by construction
its discrete fields respect the model's pointwise bounds at every node and
step. Two comparison variants (fully explicit reactions; no mass lumping)
are included because they visibly do not.
"""

from .mesh import (
    AngleReport,
    Triangulation,
    audit_angles,
    build_structured_mesh,
    read_mesh,
    triangulation_from_arrays,
    write_mesh,
)
from .model import ModelParams, State, reactions, vascular_fraction
from .config import (
    ConstantProfile,
    GaussianProfile,
    InitialConditions,
    MeshSpec,
    OutputOptions,
    RunConfig,
    SchemeVariant,
    SolverOptions,
)
from .scheme import RunReport, run

__version__ = "0.1.0"

__all__ = [
    "AngleReport",
    "Triangulation",
    "audit_angles",
    "build_structured_mesh",
    "read_mesh",
    "triangulation_from_arrays",
    "write_mesh",
    "ModelParams",
    "State",
    "reactions",
    "vascular_fraction",
    "ConstantProfile",
    "GaussianProfile",
    "InitialConditions",
    "MeshSpec",
    "OutputOptions",
    "RunConfig",
    "RunReport",
    "SchemeVariant",
    "SolverOptions",
    "run",
    "__version__",
]
