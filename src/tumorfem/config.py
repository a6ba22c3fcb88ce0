"""Run configurations: their types and their one parser.

``RunConfig`` and its parts hold the defaults and validate their values;
``SchemeVariant`` gives each scheme's two axes, ``lumped`` and ``split``.
Config files are INI-style with sections [mesh], [params], [time],
[scheme], [initial], [solver], [output]. Parameter keys use the model
symbol names (kappa1, kappa0, rho, alpha, beta1, beta2, gamma, delta, K);
key case is preserved. A section or key that parsing never reads is an
error, so a misspelt key cannot fall back to its default unnoticed.
"""

from __future__ import annotations

import configparser
import enum
import math
import os
from dataclasses import dataclass, fields
from typing import ClassVar

import numpy as np

from .mesh import Triangulation, build_structured_mesh, read_mesh
from .model import ModelParams


class SchemeVariant(enum.Enum):
    """A scheme as two axes: lumped (else consistent) mass, split (else explicit) reactions."""

    IMEX_LUMPED = "imex-lumped"
    EXPLICIT_LUMPED = "explicit-lumped"
    IMEX_CONSISTENT = "imex-consistent"

    @property
    def lumped(self) -> bool:
        return self is not SchemeVariant.IMEX_CONSISTENT

    @property
    def split(self) -> bool:
        return self is not SchemeVariant.EXPLICIT_LUMPED


@dataclass(frozen=True)
class GaussianProfile:
    """base + amplitude * exp(-|x - center|^2 / width^2), clipped to [0, K]."""

    base: float = 0.0
    amplitude: float = 1.0
    center: tuple[float, float] = (0.5, 0.5)
    width: float = 0.1

    def __post_init__(self):
        if not all(map(math.isfinite, (self.base, self.amplitude, *self.center, self.width))):
            raise ValueError("profile parameters must be finite")
        # width * width, not width**2: a float ** raises on overflow
        if not (self.width > 0.0 and 0.0 < self.width * self.width < math.inf):
            raise ValueError("Gaussian profile width must be positive with 0 < width**2 < inf")

    def evaluate(self, nodes: np.ndarray, K: float) -> np.ndarray:
        # A center far off the mesh overflows r2, and a subnormal width**2 the
        # quotient, to inf; exp(-inf) is the 0 wanted.
        with np.errstate(over="ignore"):
            r2 = (nodes[:, 0] - self.center[0]) ** 2 + (nodes[:, 1] - self.center[1]) ** 2
            v = self.base + self.amplitude * np.exp(-r2 / self.width**2)
        return np.minimum(np.maximum(v, 0.0), K)


@dataclass(frozen=True)
class InitialConditions:
    T: GaussianProfile
    N: GaussianProfile
    Phi: GaussianProfile


@dataclass(frozen=True)
class MeshSpec:
    """Either a structured rectangle (nx, ny, lx, ly) or an external mesh file."""

    nx: int = 0
    ny: int = 0
    lx: float = 1.0
    ly: float = 1.0
    path: str = ""

    def build(self) -> Triangulation:
        if self.path:
            return read_mesh(self.path)
        return build_structured_mesh(self.nx, self.ny, self.lx, self.ly)


@dataclass(frozen=True)
class SolverOptions:
    tol: float = 1e-10
    maxit: int = 0  # 0 means 10 * n, in the solvers too

    def __post_init__(self):
        if not (math.isfinite(self.tol) and self.tol > 0.0):
            raise ValueError("solver tol must be finite and positive")
        if self.maxit < 0:
            raise ValueError("solver maxit must be nonnegative (0 means 10 * n)")


@dataclass(frozen=True)
class OutputOptions:
    """A run writes every file into ``directory``, under the fixed names below;
    the snapshot of step k is the prefix followed by ``_<k:06d>.vtk``."""

    directory: str = "."  # "" (a config's empty value) is read as "."
    snapshot_every: int = 0  # 0 disables VTK snapshots
    csv_name: ClassVar[str] = "per_step.csv"
    summary_name: ClassVar[str] = "summary.txt"
    vtk_prefix: ClassVar[str] = "snapshot"

    def __post_init__(self):
        object.__setattr__(self, "directory", self.directory or ".")
        if self.snapshot_every < 0:
            raise ValueError("snapshot_every must be nonnegative (0 disables snapshots)")


@dataclass(frozen=True)
class RunConfig:
    mesh: MeshSpec
    params: ModelParams
    dt: float
    tf: float
    variant: SchemeVariant
    initial: InitialConditions
    solver: SolverOptions = SolverOptions()
    output: OutputOptions = OutputOptions()
    label: str = "run"

    def __post_init__(self):
        if not (math.isfinite(self.dt) and math.isfinite(self.tf)):
            raise ValueError("dt and tf must be finite")
        if self.dt <= 0.0:
            raise ValueError("dt must be positive")
        # tf == 0 is a degenerate run that records only initial diagnostics
        if self.tf != 0.0 and self.tf < self.dt:
            raise ValueError("tf must be zero or at least dt")
        steps = self.tf / self.dt
        if abs(steps - round(steps)) > 1e-9 * max(1.0, steps):
            raise ValueError(f"tf/dt = {steps} is not an integer step count")
        # compare and the presets name a run's directory after its label
        if self.label in ("", ".", "..") or os.path.basename(self.label) != self.label:
            raise ValueError(f"label {self.label!r} must be one path component")

    @property
    def n_steps(self) -> int:
        return int(round(self.tf / self.dt))


_VARIANTS = [v.value for v in SchemeVariant]
_NO_DEFAULT = object()
_KIND = {float: "a number", int: "an integer"}


class ConfigError(ValueError):
    """Malformed or inconsistent configuration input."""


class _Reader:
    """Typed reads from INI text that record every (section, key) asked for."""

    def __init__(self, text: str):
        self._cp = configparser.ConfigParser(interpolation=None)
        self._cp.optionxform = str  # keep K distinct from k
        try:
            self._cp.read_string(text)
        except configparser.Error as exc:
            raise ConfigError(f"config parse error: {exc}") from exc
        self._asked: set[tuple[str, str]] = set()

    def get(self, section: str, key: str, convert=str, default=_NO_DEFAULT):
        self._asked.add((section, key))
        if not self._cp.has_option(section, key):
            if default is not _NO_DEFAULT:
                return default
            if not self._cp.has_section(section):
                raise ConfigError(f"missing section [{section}]")
            raise ConfigError(f"missing key '{key}' in section [{section}]")
        raw = self._cp.get(section, key)
        try:
            return convert(raw)
        except ValueError as exc:
            raise ConfigError(f"[{section}] {key} = {raw!r} is not {_KIND[convert]}") from exc

    def reject_unasked(self) -> None:
        sections = {section for section, _ in self._asked}
        for section in self._cp.sections():
            if section not in sections:
                raise ConfigError(f"unknown section [{section}]")
            for key in self._cp.options(section):
                if (section, key) not in self._asked:
                    raise ConfigError(f"unknown key '{key}' in section [{section}]")


def _parse_mesh(r: _Reader) -> MeshSpec:
    kind = r.get("mesh", "type").strip()
    if kind == "structured":
        # required, unlike the [solver] and [output] keys, but typed alike
        return MeshSpec(**{f.name: r.get("mesh", f.name, type(f.default))
                           for f in fields(MeshSpec) if f.name != "path"})
    if kind == "file":
        path = r.get("mesh", "path").strip()
        if not path:
            raise ConfigError("[mesh] path must not be empty for type = file")
        return MeshSpec(path=path)
    raise ConfigError(f"[mesh] type must be 'structured' or 'file', got {kind!r}")


def _parse_variant(r: _Reader) -> SchemeVariant:
    raw = r.get("scheme", "variant").strip()
    if raw not in _VARIANTS:
        raise ConfigError(f"[scheme] variant must be one of {_VARIANTS}, got {raw!r}")
    return SchemeVariant(raw)


def _parse_profile(r: _Reader, name: str):
    kind = r.get("initial", f"{name}_profile").strip()
    if kind == "constant":  # the Gaussian of amplitude 0, flat at its base
        return GaussianProfile(base=r.get("initial", f"{name}_value", float), amplitude=0.0)
    if kind == "gaussian":
        return GaussianProfile(
            base=r.get("initial", f"{name}_base", float),
            amplitude=r.get("initial", f"{name}_amplitude", float),
            center=(
                r.get("initial", f"{name}_center_x", float),
                r.get("initial", f"{name}_center_y", float),
            ),
            width=r.get("initial", f"{name}_width", float),
        )
    raise ConfigError(f"[initial] {name}_profile must be 'constant' or 'gaussian', got {kind!r}")


def _parse_options(r: _Reader, section: str, cls):
    """``cls`` read from ``section``: one key per field, named and typed like the
    field and defaulting to its default."""
    return cls(**{f.name: r.get(section, f.name, type(f.default), f.default) for f in fields(cls)})


def parse_config(text: str) -> RunConfig:
    r = _Reader(text)
    # Arguments are evaluated in this order, which fixes the error reported
    # for a file with several. Absent [solver]/[output] keys and label take
    # the dataclass defaults.
    try:
        config = RunConfig(
            mesh=_parse_mesh(r),
            params=ModelParams(**{f.name: r.get("params", f.name, float)
                                 for f in fields(ModelParams)}),
            variant=_parse_variant(r),
            initial=InitialConditions(**{f.name: _parse_profile(r, f.name)
                                         for f in fields(InitialConditions)}),
            solver=_parse_options(r, "solver", SolverOptions),
            output=_parse_options(r, "output", OutputOptions),
            dt=r.get("time", "dt", float),
            tf=r.get("time", "tf", float),
            label=r.get("scheme", "label", default=RunConfig.label),
        )
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    r.reject_unasked()
    return config


def parse_config_file(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as f:
            text = f.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config(text)
