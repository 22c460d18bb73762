"""Range-separation parameter scan.

The engine itself is mu-agnostic: each grid point reads its own
externally generated integral file (the per-mu physics lives in those
integrals), runs the embedding cycle with identical active-space and
solver settings, and the optimal mu is the converged point of lowest
total energy.  Non-converged points, and points whose input or
embedding raised, never enter the argmin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

from .activespace import ActiveSpaceSpec
from .embedding import EmbeddingConfig, run_embedding
from .integrals import IntegralSet, read_fcidump
from .meanfield import MeanFieldResult, _solve_stack
from .vqe import VqeConfig

__all__ = ["MuScanError", "MuScanConfigError", "MuScanSpec", "MuScanRow", "mu_grid", "select_optimal_mu", "mu_scan"]

_MU_KEY_TOLERANCE = 1e-9
_TIE_TOLERANCE = 1e-12
# Most doubles of dense (pq|rs) in one mean-field stack (32 MiB); a larger point is solved alone.
_STACK_DOUBLES = 1 << 22


class MuScanError(RuntimeError):
    """No usable scan result (every grid point failed or did not converge)."""


class MuScanConfigError(ValueError):
    """Scan inputs incomplete or inconsistent."""


@dataclass(frozen=True)
class MuScanSpec:
    """Grid definition plus the per-mu integral files."""

    mu_start: float = 0.5
    mu_end: float = 10.0
    mu_step: float = 0.25
    per_mu_inputs: dict[float, Path] = field(default_factory=dict)

    def __post_init__(self):
        for name in ("mu_start", "mu_end", "mu_step"):
            if not math.isfinite(getattr(self, name)):
                raise MuScanConfigError(f"{name} must be finite, got {getattr(self, name)}")
        if self.mu_step <= 0:
            raise MuScanConfigError(f"mu_step must be positive, got {self.mu_step}")
        if self.mu_end < self.mu_start:
            raise MuScanConfigError("mu_end must be >= mu_start")


@dataclass(frozen=True)
class MuScanRow:
    """One scan point of the per-mu energy table.  A point that raised is
    not converged, has NaN energies and 0 iterations, and ``error`` holds
    the exception's type and message (empty otherwise)."""

    mu: float
    e_hf: float
    e_total: float
    iterations: int
    converged: bool
    evaluations: int = 0
    error: str = ""


def mu_grid(spec: MuScanSpec) -> list[float]:
    """Grid values mu_start + k * mu_step up to mu_end inclusive."""
    count = int(math.floor((spec.mu_end - spec.mu_start) / spec.mu_step + 1e-9)) + 1
    return [spec.mu_start + k * spec.mu_step for k in range(count)]


def _mu_key(mu: float, keys) -> float:
    """The first of ``keys`` within 1e-9 of ``mu``, else ``mu``: how a mu finds its grid point or file."""
    return next((key for key in keys if abs(key - mu) < _MU_KEY_TOLERANCE), mu)


def _input_for(spec: MuScanSpec, mu: float) -> Path | None:
    path = spec.per_mu_inputs.get(_mu_key(mu, spec.per_mu_inputs))
    return None if path is None else Path(path)


def select_optimal_mu(rows: list[MuScanRow]) -> float:
    """Argmin of the converged energies; ties go to the smaller mu."""
    converged = [row for row in rows if row.converged]
    if not converged:
        failures = "".join(f"; mu {row.mu:g} failed: {row.error}" for row in rows if row.error)
        raise MuScanError("no fully converged scan point; cannot select an optimal mu" + failures)
    best = min(converged, key=lambda row: row.e_total)
    candidates = [row.mu for row in converged if row.e_total <= best.e_total + _TIE_TOLERANCE]
    return min(candidates)


def mu_scan(
    spec: MuScanSpec,
    active: ActiveSpaceSpec,
    embed_config: EmbeddingConfig | None = None,
    vqe_config: VqeConfig | None = None,
) -> tuple[float, list[MuScanRow]]:
    """Run the embedding at every grid point and pick the optimal mu.

    Every grid value must have an input file; all points share the same
    active space and solver configuration.  Points that fail to converge
    or raise are kept in the table (flagged) but excluded from the
    argmin.  Consecutive points of one (n_orbitals, n_electrons) shape solve
    their mean-field references as one stack of at most 2**22 doubles of
    (pq|rs); each row is bitwise a lone ``read_fcidump`` and ``run_embedding``'s.
    """
    grid = mu_grid(spec)
    missing = [mu for mu in grid if _input_for(spec, mu) is None]
    if missing:
        raise MuScanConfigError(
            "missing integral files for mu values: " + ", ".join(f"{mu:g}" for mu in missing)
        )

    def point(mu: float, integrals: IntegralSet | None, mean_field: MeanFieldResult | Exception) -> MuScanRow:
        try:
            if isinstance(mean_field, Exception):
                raise mean_field
            state = run_embedding(integrals, active, embed_config, vqe_config, mean_field=mean_field)
        except Exception as exc:  # noqa: BLE001 - one bad point must not end the scan
            return MuScanRow(mu, math.nan, math.nan, 0, False, error=f"{type(exc).__name__}: {exc}")
        return MuScanRow(mu, state.mean_field_energy, state.final_energy, state.iteration, state.converged,
                         sum(state.solver_evaluations))

    rows: list[MuScanRow | None] = [None] * len(grid)
    stack: list[tuple[int, IntegralSet]] = []

    def run_stack() -> None:
        mean_fields = _solve_stack([integrals for _, integrals in stack])
        for (k, integrals), mean_field in zip(stack, mean_fields):
            rows[k] = point(grid[k], integrals, mean_field)
        stack.clear()

    for k, mu in enumerate(grid):
        try:
            integrals = read_fcidump(_input_for(spec, mu))
        except Exception as exc:  # noqa: BLE001
            rows[k] = point(mu, None, exc)
            continue
        shape = (integrals.n_orbitals, integrals.n_electrons)
        if stack and (shape != stack_shape or (len(stack) + 1) * shape[0] ** 4 > _STACK_DOUBLES):
            run_stack()
        stack.append((k, integrals))
        stack_shape = shape
    run_stack()
    return select_optimal_mu(rows), rows
