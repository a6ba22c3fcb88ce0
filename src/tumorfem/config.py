"""Config-file parsing and serialization for run configurations.

The format is INI-style with sections [mesh], [params], [time], [scheme],
[initial], [solver], [output]. Parameter keys use the model symbol names
(kappa1, kappa0, rho, alpha, beta1, beta2, gamma, delta, K); key case is
preserved. Floats are serialized with ``repr`` so a write/parse cycle is
bit-identical. A section or key that ``serialize_config`` would not write
for the parsed config is an error, so a misspelt key cannot fall back to
its default unnoticed.
"""

from __future__ import annotations

import configparser
import io

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

__all__ = ["ConfigError", "parse_config", "parse_config_file", "serialize_config", "write_config_file"]

_PARAM_KEYS = ("kappa1", "kappa0", "rho", "alpha", "beta1", "beta2", "gamma", "delta", "K")
_FIELDS = ("T", "N", "Phi")


class ConfigError(ValueError):
    """Malformed or inconsistent configuration input."""


def _new_parser() -> configparser.ConfigParser:
    cp = configparser.ConfigParser(interpolation=None)
    cp.optionxform = str  # keep K distinct from k
    return cp


def _require(cp, section: str, key: str) -> str:
    if not cp.has_section(section):
        raise ConfigError(f"missing section [{section}]")
    if not cp.has_option(section, key):
        raise ConfigError(f"missing key '{key}' in section [{section}]")
    return cp.get(section, key)


def _get_float(cp, section: str, key: str) -> float:
    raw = _require(cp, section, key)
    try:
        return float(raw)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key} = {raw!r} is not a number") from exc


def _get_int(cp, section: str, key: str, default: int | None = None) -> int:
    if default is not None and not (cp.has_section(section) and cp.has_option(section, key)):
        return default
    raw = _require(cp, section, key)
    try:
        return int(raw)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key} = {raw!r} is not an integer") from exc


def _parse_mesh(cp) -> MeshSpec:
    kind = _require(cp, "mesh", "type").strip()
    if kind == "structured":
        return MeshSpec(
            nx=_get_int(cp, "mesh", "nx"),
            ny=_get_int(cp, "mesh", "ny"),
            lx=_get_float(cp, "mesh", "lx"),
            ly=_get_float(cp, "mesh", "ly"),
        )
    if kind == "file":
        return MeshSpec(path=_require(cp, "mesh", "path").strip())
    raise ConfigError(f"[mesh] type must be 'structured' or 'file', got {kind!r}")


def _parse_profile(cp, name: str):
    kind = _require(cp, "initial", f"{name}_profile").strip()
    if kind == "constant":
        return ConstantProfile(value=_get_float(cp, "initial", f"{name}_value"))
    if kind == "gaussian":
        return GaussianProfile(
            base=_get_float(cp, "initial", f"{name}_base"),
            amplitude=_get_float(cp, "initial", f"{name}_amplitude"),
            center=(
                _get_float(cp, "initial", f"{name}_center_x"),
                _get_float(cp, "initial", f"{name}_center_y"),
            ),
            width=_get_float(cp, "initial", f"{name}_width"),
        )
    raise ConfigError(f"[initial] {name}_profile must be 'constant' or 'gaussian', got {kind!r}")


def parse_config(text: str, label: str = "run") -> RunConfig:
    cp = _new_parser()
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config parse error: {exc}") from exc

    mesh = _parse_mesh(cp)
    try:
        params = ModelParams(**{k: _get_float(cp, "params", k) for k in _PARAM_KEYS})
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    variant_raw = _require(cp, "scheme", "variant").strip()
    try:
        variant = SchemeVariant(variant_raw)
    except ValueError as exc:
        raise ConfigError(
            f"[scheme] variant must be one of "
            f"{[v.value for v in SchemeVariant]}, got {variant_raw!r}"
        ) from exc

    try:
        initial = InitialConditions(**{name: _parse_profile(cp, name) for name in _FIELDS})
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    # Absent keys take the dataclass defaults, so parser and dataclass agree.
    try:
        solver = SolverOptions(
            tol=(_get_float(cp, "solver", "tol") if cp.has_option("solver", "tol")
                 else SolverOptions.tol),
            maxit=_get_int(cp, "solver", "maxit", default=SolverOptions.maxit),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    try:
        output = OutputOptions(
            directory=cp.get("output", "directory", fallback=OutputOptions.directory),
            csv_name=cp.get("output", "csv", fallback=OutputOptions.csv_name),
            summary_name=cp.get("output", "summary", fallback=OutputOptions.summary_name),
            snapshot_every=_get_int(cp, "output", "snapshot_every",
                                    default=OutputOptions.snapshot_every),
            vtk_prefix=cp.get("output", "vtk_prefix", fallback=OutputOptions.vtk_prefix),
        )
        config = RunConfig(
            mesh=mesh,
            params=params,
            dt=_get_float(cp, "time", "dt"),
            tf=_get_float(cp, "time", "tf"),
            variant=variant,
            initial=initial,
            solver=solver,
            output=output,
            label=cp.get("scheme", "label", fallback=label),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    _reject_unknown(cp, config)
    return config


def _reject_unknown(cp, config: RunConfig) -> None:
    # parse_config reads exactly the keys serialize_config writes for its result.
    known = _new_parser()
    known.read_string(serialize_config(config))
    for section in cp.sections():
        if not known.has_section(section):
            raise ConfigError(f"unknown section [{section}]")
        for key in cp.options(section):
            if not known.has_option(section, key):
                raise ConfigError(f"unknown key '{key}' in section [{section}]")


def parse_config_file(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as f:
            text = f.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config(text)


def _profile_lines(name: str, profile) -> list[str]:
    if isinstance(profile, ConstantProfile):
        return [f"{name}_profile = constant", f"{name}_value = {profile.value!r}"]
    return [
        f"{name}_profile = gaussian",
        f"{name}_base = {profile.base!r}",
        f"{name}_amplitude = {profile.amplitude!r}",
        f"{name}_center_x = {profile.center[0]!r}",
        f"{name}_center_y = {profile.center[1]!r}",
        f"{name}_width = {profile.width!r}",
    ]


def serialize_config(config: RunConfig) -> str:
    buf = io.StringIO()
    w = buf.write
    w("[mesh]\n")
    if config.mesh.path:
        w("type = file\n")
        w(f"path = {config.mesh.path}\n")
    else:
        w("type = structured\n")
        w(f"nx = {config.mesh.nx}\n")
        w(f"ny = {config.mesh.ny}\n")
        w(f"lx = {config.mesh.lx!r}\n")
        w(f"ly = {config.mesh.ly!r}\n")
    w("\n[params]\n")
    for key in _PARAM_KEYS:
        w(f"{key} = {getattr(config.params, key)!r}\n")
    w("\n[time]\n")
    w(f"dt = {config.dt!r}\n")
    w(f"tf = {config.tf!r}\n")
    w("\n[scheme]\n")
    w(f"variant = {config.variant.value}\n")
    w(f"label = {config.label}\n")
    w("\n[initial]\n")
    for name in _FIELDS:
        for line in _profile_lines(name, getattr(config.initial, name)):
            w(line + "\n")
    w("\n[solver]\n")
    w(f"tol = {config.solver.tol!r}\n")
    w(f"maxit = {config.solver.maxit}\n")
    w("\n[output]\n")
    w(f"directory = {config.output.directory}\n")
    w(f"csv = {config.output.csv_name}\n")
    w(f"summary = {config.output.summary_name}\n")
    w(f"snapshot_every = {config.output.snapshot_every}\n")
    w(f"vtk_prefix = {config.output.vtk_prefix}\n")
    return buf.getvalue()


def write_config_file(config: RunConfig, path: str) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(serialize_config(config))
