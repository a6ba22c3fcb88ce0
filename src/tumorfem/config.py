"""Config-file parsing for run configurations.

The format is INI-style with sections [mesh], [params], [time], [scheme],
[initial], [solver], [output]. Parameter keys use the model symbol names
(kappa1, kappa0, rho, alpha, beta1, beta2, gamma, delta, K); key case is
preserved. A section or key that parsing never reads is an error, so a
misspelt key cannot fall back to its default unnoticed.
"""

from __future__ import annotations

import configparser
import dataclasses

from .model import ModelParams
from .scheme import (
    ConstantProfile,
    GaussianProfile,
    InitialConditions,
    MeshSpec,
    OutputOptions,
    RunConfig,
    SchemeVariant,
    SolverOptions,
)

__all__ = ["ConfigError", "parse_config", "parse_config_file"]

_PARAM_KEYS = tuple(f.name for f in dataclasses.fields(ModelParams))
_FIELDS = ("T", "N", "Phi")
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
        return MeshSpec(
            nx=r.get("mesh", "nx", int),
            ny=r.get("mesh", "ny", int),
            lx=r.get("mesh", "lx", float),
            ly=r.get("mesh", "ly", float),
        )
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
    if kind == "constant":
        return ConstantProfile(value=r.get("initial", f"{name}_value", float))
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


def parse_config(text: str, label: str = "run") -> RunConfig:
    r = _Reader(text)
    # Arguments are evaluated in this order, which fixes the error reported
    # for a file with several. Absent [solver]/[output] keys and label take
    # the dataclass defaults.
    try:
        config = RunConfig(
            mesh=_parse_mesh(r),
            params=ModelParams(**{k: r.get("params", k, float) for k in _PARAM_KEYS}),
            variant=_parse_variant(r),
            initial=InitialConditions(**{name: _parse_profile(r, name) for name in _FIELDS}),
            solver=SolverOptions(
                tol=r.get("solver", "tol", float, SolverOptions.tol),
                maxit=r.get("solver", "maxit", int, SolverOptions.maxit),
            ),
            output=OutputOptions(
                directory=r.get("output", "directory", default=OutputOptions.directory),
                csv_name=r.get("output", "csv", default=OutputOptions.csv_name),
                summary_name=r.get("output", "summary", default=OutputOptions.summary_name),
                snapshot_every=r.get("output", "snapshot_every", int,
                                     OutputOptions.snapshot_every),
                vtk_prefix=r.get("output", "vtk_prefix", default=OutputOptions.vtk_prefix),
            ),
            dt=r.get("time", "dt", float),
            tf=r.get("time", "tf", float),
            label=r.get("scheme", "label", default=label),
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
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config(text)
