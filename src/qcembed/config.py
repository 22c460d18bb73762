"""Workbench configuration files.

Flat INI-style key-value files with sections mirroring the config
dataclasses:

    [system]
    fcidump = path/to/file.fcidump
    molecule = water

    [active_space]
    n_electrons = 2
    n_orbitals = 2

    [vqe]
    seed = 7
    sigma = 0.001
    max_iterations = 50
    tolerance = 1e-6
    gradient_step = 1e-6

    [embedding]
    threshold = 1e-7
    max_iterations = 20
    damping_floor = 0.05
    damping_scale = 0.2
    active_solver = vqe

    [mu_scan]
    mu_start = 0.5
    mu_end = 10.0
    mu_step = 0.25
    inputs_pattern = inputs/run_mu{mu:.2f}.fcidump

    [mu_inputs]
    0.5 = inputs/a.fcidump
    0.75 = inputs/b.fcidump

An explicit [mu_inputs] entry replaces the pattern's file for the grid
value it matches to within 1e-9 (0.3 matches 0.1 + 2 * 0.1), so each
grid value has one file.  CLI flags override
file values.  A section not listed above is an error, as is a key that
its section does not list, unless it is only inherited from [DEFAULT]:
a key that a section sets itself is checked, and in [mu_inputs] used,
even when [DEFAULT] sets it too.
Numbers must be finite: nan and inf are refused.  Every ``ConfigError``
on a file's content (an unknown section or key, a value that cannot be
cast or that a section's dataclass refuses, a [mu_inputs] key that is
not a finite mu value) names the file, and the section where it has one.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field
from pathlib import Path

from .activespace import ActiveSpaceSpec
from .embedding import EmbeddingConfig
from .scan import MuScanSpec, _mu_key, mu_grid
from .vqe import VqeConfig

__all__ = ["ConfigError", "WorkbenchConfig", "load_config"]


class ConfigError(ValueError):
    """Unreadable or inconsistent configuration file."""


@dataclass
class WorkbenchConfig:
    fcidump: Path | None = None
    molecule: str = ""
    active_spec: ActiveSpaceSpec | None = None
    vqe: VqeConfig = field(default_factory=VqeConfig)
    embedding: EmbeddingConfig = field(default_factory=EmbeddingConfig)
    mu_scan: MuScanSpec | None = None


# the keys each section may hold, with their types
_KEYS = {
    "system": {"fcidump": str, "molecule": str},
    "active_space": {"n_electrons": int, "n_orbitals": int},
    "vqe": {"seed": int, "sigma": float, "max_iterations": int, "tolerance": float, "gradient_step": float},
    "embedding": {
        "threshold": float, "max_iterations": int, "damping_floor": float,
        "damping_scale": float, "active_solver": str,
    },
    "mu_scan": {"mu_start": float, "mu_end": float, "mu_step": float, "inputs_pattern": str},
}
# [mu_inputs] maps mu values to files, so its keys are not fixed
_SECTIONS = (*_KEYS, "mu_inputs")


def _own_keys(path: str | Path) -> configparser.ConfigParser:
    """The file read again with no default section, so that each
    section's options are the keys it sets itself, without those it
    inherits from [DEFAULT].  A newline cannot occur in a section name,
    and ``strict=False`` lets repeated [DEFAULT] headers, which the first
    read merges, merge here too."""
    own = configparser.ConfigParser(default_section="\n", strict=False)
    own.read(path)
    return own


def _read_section(
    parser: configparser.ConfigParser, own: configparser.ConfigParser, section: str, path: str | Path
) -> dict:
    """The values a section sets, cast to their types.  A key the section
    may not hold is an error unless only inherited from [DEFAULT]
    (``own``, from :func:`_own_keys`, holds the section's own keys)."""
    known = _KEYS[section]
    values = {}
    for key in parser.options(section):
        if key not in known:
            if not own.has_option(section, key):
                continue
            raise ConfigError(f"{path}: [{section}] unknown key {key!r}; expected one of {', '.join(known)}")
        raw = parser.get(section, key)
        try:
            values[key] = known[key](raw)
        except ValueError as exc:
            raise ConfigError(f"{path}: [{section}] {key} = {raw!r}: {exc}") from exc
    return values


def _build(path: str | Path, section: str, factory, *args, **values):
    """``factory(*args, **values)``, a value it refuses reported as a
    ``ConfigError`` that names the file and the section."""
    try:
        return factory(*args, **values)
    except ValueError as exc:
        raise ConfigError(f"{path}: [{section}] {exc}") from exc


def _resolve(base: Path, raw: str) -> Path:
    path = Path(raw)
    return path if path.is_absolute() else base / path


def load_config(path: str | Path) -> WorkbenchConfig:
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise ConfigError(f"cannot read config file {path}")
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"{path}: unknown section [{section}]; expected one of {', '.join(_SECTIONS)}")
    own = _own_keys(path)
    base = Path(path).parent
    cfg = WorkbenchConfig()
    sections = {name: _read_section(parser, own, name, path) for name in _KEYS if parser.has_section(name)}

    if "system" in sections:
        system = sections["system"]
        raw = system.get("fcidump")
        if raw:
            cfg.fcidump = (base / raw).resolve() if not Path(raw).is_absolute() else Path(raw)
        cfg.molecule = system.get("molecule", "")

    if "active_space" in sections:
        active = sections["active_space"]
        cfg.active_spec = _build(
            path, "active_space", ActiveSpaceSpec, active.get("n_electrons", 0), active.get("n_orbitals", 0)
        )

    if "vqe" in sections:
        cfg.vqe = _build(path, "vqe", VqeConfig, **sections["vqe"])

    if "embedding" in sections:
        embedding = sections["embedding"]
        if "max_iterations" in embedding:
            embedding["max_embedding_iterations"] = embedding.pop("max_iterations")
        cfg.embedding = _build(path, "embedding", EmbeddingConfig, **embedding)

    if "mu_scan" in sections:
        values = sections["mu_scan"]
        pattern = values.pop("inputs_pattern", None)
        inputs: dict[float, Path] = {}
        if pattern:
            for mu in mu_grid(_build(path, "mu_scan", MuScanSpec, **values)):
                inputs[mu] = _resolve(base, pattern.format(mu=mu))
        if parser.has_section("mu_inputs"):
            # keys inherited from [DEFAULT] are skipped, as in every other section
            for key in own.options("mu_inputs"):
                try:
                    mu = float(key)
                except ValueError as exc:
                    raise ConfigError(f"{path}: [mu_inputs] key {key!r} is not a mu value") from exc
                if not math.isfinite(mu):
                    raise ConfigError(f"{path}: [mu_inputs] key {key!r} must be finite")
                inputs[_mu_key(mu, inputs)] = _resolve(base, parser.get("mu_inputs", key))
        cfg.mu_scan = _build(path, "mu_scan", MuScanSpec, **values, per_mu_inputs=inputs)

    return cfg
