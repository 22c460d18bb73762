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

Explicit [mu_inputs] entries override the pattern.  CLI flags override
file values.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field
from pathlib import Path

from .activespace import ActiveSpaceSpec
from .embedding import EmbeddingConfig
from .scan import MuScanSpec, mu_grid
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


def _get(parser: configparser.ConfigParser, section: str, key: str, cast, default):
    if parser.has_option(section, key):
        raw = parser.get(section, key)
        try:
            return cast(raw)
        except ValueError as exc:
            raise ConfigError(f"[{section}] {key} = {raw!r}: {exc}") from exc
    return default


def load_config(path: str | Path) -> WorkbenchConfig:
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise ConfigError(f"cannot read config file {path}")
    base = Path(path).parent
    cfg = WorkbenchConfig()

    if parser.has_section("system"):
        raw = _get(parser, "system", "fcidump", str, None)
        if raw:
            cfg.fcidump = (base / raw).resolve() if not Path(raw).is_absolute() else Path(raw)
        cfg.molecule = _get(parser, "system", "molecule", str, "")

    if parser.has_section("active_space"):
        cfg.active_spec = ActiveSpaceSpec(
            n_active_electrons=_get(parser, "active_space", "n_electrons", int, 0),
            n_active_orbitals=_get(parser, "active_space", "n_orbitals", int, 0),
        )

    if parser.has_section("vqe"):
        vqe = cfg.vqe
        cfg.vqe = VqeConfig(
            seed=_get(parser, "vqe", "seed", int, vqe.seed),
            sigma=_get(parser, "vqe", "sigma", float, vqe.sigma),
            max_iterations=_get(parser, "vqe", "max_iterations", int, vqe.max_iterations),
            tolerance=_get(parser, "vqe", "tolerance", float, vqe.tolerance),
            gradient_step=_get(parser, "vqe", "gradient_step", float, vqe.gradient_step),
        )

    if parser.has_section("embedding"):
        embedding = cfg.embedding
        cfg.embedding = EmbeddingConfig(
            threshold=_get(parser, "embedding", "threshold", float, embedding.threshold),
            max_embedding_iterations=_get(
                parser, "embedding", "max_iterations", int, embedding.max_embedding_iterations
            ),
            damping_floor=_get(parser, "embedding", "damping_floor", float, embedding.damping_floor),
            damping_scale=_get(parser, "embedding", "damping_scale", float, embedding.damping_scale),
            active_solver=_get(parser, "embedding", "active_solver", str, embedding.active_solver),
        )

    if parser.has_section("mu_scan"):
        default = MuScanSpec()
        spec = MuScanSpec(
            mu_start=_get(parser, "mu_scan", "mu_start", float, default.mu_start),
            mu_end=_get(parser, "mu_scan", "mu_end", float, default.mu_end),
            mu_step=_get(parser, "mu_scan", "mu_step", float, default.mu_step),
        )
        inputs: dict[float, Path] = {}
        pattern = _get(parser, "mu_scan", "inputs_pattern", str, None)
        if pattern:
            for mu in mu_grid(spec):
                candidate = Path(pattern.format(mu=mu))
                if not candidate.is_absolute():
                    candidate = base / candidate
                inputs[mu] = candidate
        if parser.has_section("mu_inputs"):
            for key, value in parser.items("mu_inputs"):
                try:
                    mu = float(key)
                except ValueError as exc:
                    raise ConfigError(f"[mu_inputs] key {key!r} is not a mu value") from exc
                candidate = Path(value)
                if not candidate.is_absolute():
                    candidate = base / candidate
                inputs[mu] = candidate
        cfg.mu_scan = MuScanSpec(
            mu_start=spec.mu_start, mu_end=spec.mu_end, mu_step=spec.mu_step, per_mu_inputs=inputs
        )

    return cfg
