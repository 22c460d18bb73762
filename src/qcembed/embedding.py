"""Self-consistent quantum-in-mean-field embedding with adaptive damping.

The integrals are reduced once per run to the active window, with the
frozen orbitals doubly occupied; a quantum solver (statevector
UCCSD-VQE or the in-package FCI oracle) returns the window's
one-particle density, which is embedded back into the full orbital
space and mixed as

    D_i = (1 - alpha_i) D_{i-1} + alpha_i D_new,
    alpha_i = max(damping_floor, damping_scale / sqrt(i)),

declaring convergence once the total energy moves by less than the
threshold between consecutive iterations.  The orbital basis of the
initial mean-field solution stays fixed, and every mixed density keeps
the inactive occupations bitwise outside the window, so the active
Hamiltonian is the same in every iteration.  The built-in solvers
therefore solve once per run and iteration 2 confirms with a delta of
exactly 0; a callable solver is called in every iteration with that
same Hamiltonian.  A resumed state whose density outside the window is
not the inactive occupation would need another bath and is refused.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import IO, Callable

import numpy as np

from .activespace import (
    ActiveHamiltonian,
    ActiveSpaceSpec,
    reduce_in_orbital_basis,
    select_orbitals,
    transform_to_mo_basis,
)
from .fci import fci_solve
from .integrals import IntegralSet
from .meanfield import solve_rhf
from .sim import (
    build_uccsd_ansatz,
    evolve_ansatz,
    lift_reduced_parity_state,
    map_active_hamiltonian,
    spin_summed_one_rdm,
)
from .vqe import VqeConfig, minimize

__all__ = [
    "EmbeddingError",
    "EmbeddingConfig",
    "EmbeddingState",
    "damping_factor",
    "run_embedding",
    "write_iteration_log_csv",
]

# A pluggable active-space solver maps (active_hamiltonian, iteration) to
# (electronic energy, spin-summed active 1-RDM, objective evaluations).
ActiveSolver = Callable[[ActiveHamiltonian, int], tuple[float, np.ndarray, int]]


class EmbeddingError(RuntimeError):
    """Embedding preconditions violated or the active solver failed."""


@dataclass(frozen=True)
class EmbeddingConfig:
    """Cycle controls.

    ``active_solver`` selects the in-loop solver: "vqe", "fci", or any
    callable with the :data:`ActiveSolver` signature (used for stubbing
    and experimentation).
    """

    threshold: float = 1e-7
    max_embedding_iterations: int = 20
    damping_floor: float = 0.05
    damping_scale: float = 0.2
    active_solver: str | ActiveSolver = "vqe"

    def __post_init__(self):
        if not math.isfinite(self.threshold):
            raise ValueError(f"threshold must be finite, got {self.threshold}")
        if self.threshold <= 0:
            raise ValueError(f"threshold must be positive, got {self.threshold}")
        if not 0 < self.damping_floor <= self.damping_scale <= 1:
            raise ValueError(
                "damping parameters must satisfy 0 < floor <= scale <= 1, got "
                f"floor={self.damping_floor}, scale={self.damping_scale}"
            )
        if self.max_embedding_iterations < 1:
            raise ValueError("max_embedding_iterations must be >= 1")
        if isinstance(self.active_solver, str) and self.active_solver not in ("vqe", "fci"):
            raise ValueError(f"unknown active solver {self.active_solver!r}")


@dataclass(frozen=True)
class EmbeddingState:
    """Histories and final densities of an embedding run.

    ``iteration`` is 1-based; ``alpha_history[i-1]`` equals
    max(damping_floor, damping_scale / sqrt(i)) exactly.
    """

    iteration: int
    damped_density: np.ndarray
    energy_history: tuple[float, ...]
    alpha_history: tuple[float, ...]
    converged: bool
    delta_history: tuple[float, ...] = ()
    solver_evaluations: tuple[int, ...] = ()
    inactive_orbitals: tuple[int, ...] = ()
    active_orbitals: tuple[int, ...] = ()
    mean_field_energy: float = math.nan

    @property
    def final_energy(self) -> float:
        if not self.energy_history:
            raise EmbeddingError("embedding state holds no energies")
        return self.energy_history[-1]


def damping_factor(iteration: int, config: EmbeddingConfig | None = None) -> float:
    """Adaptive mixing weight max(floor, scale / sqrt(i)) for 1-based i."""
    if iteration < 1:
        raise ValueError(f"iteration index is 1-based, got {iteration}")
    if config is None:
        config = EmbeddingConfig()
    return max(config.damping_floor, config.damping_scale / math.sqrt(iteration))


def _solve_active_fci(active: ActiveHamiltonian, _: int) -> tuple[float, np.ndarray, int]:
    result = fci_solve(active)
    return result.ground_energy, result.one_rdm, 1


def _make_vqe_solver(vqe_config: VqeConfig) -> ActiveSolver:
    def solver(active: ActiveHamiltonian, _: int) -> tuple[float, np.ndarray, int]:
        hamiltonian = map_active_hamiltonian(active)
        ansatz = build_uccsd_ansatz(active.n_orbitals, active.n_electrons)
        result = minimize(hamiltonian, ansatz, vqe_config)
        state = evolve_ansatz(ansatz, result.parameters)
        lifted = lift_reduced_parity_state(
            state, active.n_orbitals, ansatz.n_alpha, ansatz.n_beta
        )
        gamma = spin_summed_one_rdm(lifted, active.n_orbitals)
        return result.energy, gamma, result.evaluations

    return solver


def _solve_once(solve: ActiveSolver) -> ActiveSolver:
    """Wrap a solver that is a pure function of its active Hamiltonian.

    An embedding run passes the same Hamiltonian in every iteration, so
    the first call solves and every later call returns that energy and a
    copy of its 1-RDM, with 0 evaluations.
    """
    first: tuple[float, np.ndarray] | None = None

    def solver(active: ActiveHamiltonian, iteration: int) -> tuple[float, np.ndarray, int]:
        nonlocal first
        if first is not None:
            return first[0], first[1].copy(), 0
        energy, gamma, evaluations = solve(active, iteration)
        first = (energy, gamma.copy())
        return energy, gamma, evaluations

    return solver


def _resolve_solver(config: EmbeddingConfig, vqe_config: VqeConfig | None) -> ActiveSolver:
    # callables may depend on the iteration, so only the built-in solvers,
    # both pure functions of the active Hamiltonian, reuse the first solve
    if callable(config.active_solver):
        return config.active_solver
    if config.active_solver == "fci":
        return _solve_once(_solve_active_fci)
    return _solve_once(_make_vqe_solver(vqe_config or VqeConfig()))


def _check_resume(
    state: EmbeddingState, inactive_density: np.ndarray, inactive: list[int], active: list[int]
) -> None:
    """Refuse a state whose density or recorded orbital split does not fit
    the integrals and active-space selection of the run resuming it, or
    whose environment density (outside the active window) is not the
    inactive occupation the run reduces against."""
    n = len(inactive_density)
    if state.damped_density.shape != (n, n):
        raise EmbeddingError(
            f"resume state density has shape {state.damped_density.shape}, "
            f"the integrals need ({n}, {n})"
        )
    for name, recorded, current in (
        ("active", state.active_orbitals, active),
        ("inactive", state.inactive_orbitals, inactive),
    ):
        if recorded and tuple(recorded) != tuple(current):
            raise EmbeddingError(
                f"resume state {name} orbitals {tuple(recorded)} differ from the "
                f"current selection {tuple(current)}"
            )
    environment = np.ones(n, dtype=bool)
    environment[active] = False
    block = np.ix_(environment, environment)
    if not np.array_equal(state.damped_density[block], inactive_density[block]):
        raise EmbeddingError(
            "resume state environment density outside the active window "
            f"{tuple(active)} differs from the inactive occupation"
        )


def run_embedding(
    integrals: IntegralSet,
    spec: ActiveSpaceSpec,
    config: EmbeddingConfig | None = None,
    vqe_config: VqeConfig | None = None,
    resume_from: EmbeddingState | None = None,
) -> EmbeddingState:
    """Run the damped embedding cycle to self-consistency.

    Returns the full iteration state; ``converged=False`` (not an
    exception) when the energy has not stabilized within
    ``max_embedding_iterations``.  Passing a previous state as
    ``resume_from`` continues the iteration count, histories and
    densities of that run; a state whose density shape, recorded
    orbital split or environment density does not match this run raises
    :class:`EmbeddingError`.
    """
    if config is None:
        config = EmbeddingConfig()
    mf = solve_rhf(integrals)
    if not mf.converged:
        raise EmbeddingError("mean-field reference did not converge; tighten its settings")

    inactive, active = select_orbitals(mf, spec)
    h_mo, eri_mo = transform_to_mo_basis(integrals, mf.orbital_coefficients)
    active_h = reduce_in_orbital_basis(
        h_mo, eri_mo, integrals.core_energy, inactive, active, spec.n_active_electrons
    )
    solver = _resolve_solver(config, vqe_config)

    n = integrals.n_orbitals
    inactive_density = np.zeros((n, n))
    inactive_density[inactive, inactive] = 2.0

    if resume_from is not None:
        _check_resume(resume_from, inactive_density, inactive, active)
        density = resume_from.damped_density.copy()
        energies = list(resume_from.energy_history)
        alphas = list(resume_from.alpha_history)
        deltas = list(resume_from.delta_history)
        evaluations = list(resume_from.solver_evaluations)
        start = resume_from.iteration + 1
        previous_energy = energies[-1] if energies else None
    else:
        occupied = np.arange(mf.n_occupied)
        density = np.zeros((n, n))
        density[occupied, occupied] = 2.0
        energies, alphas, deltas, evaluations = [], [], [], []
        start = 1
        previous_energy = None

    converged = False
    iteration = start - 1
    for iteration in range(start, start + config.max_embedding_iterations):
        alpha = damping_factor(iteration, config)
        if spec.is_empty:
            active_energy, gamma, n_evals = 0.0, np.zeros((0, 0)), 0
        else:
            try:
                active_energy, gamma, n_evals = solver(active_h, iteration)
            except Exception as exc:  # noqa: BLE001 - annotate and re-raise
                raise EmbeddingError(
                    f"active solver failed at embedding iteration {iteration}: {exc}"
                ) from exc

        energy = active_h.inactive_energy + active_energy

        new_density = inactive_density.copy()
        if active:
            idx = np.asarray(active, dtype=int)
            new_density[np.ix_(idx, idx)] = gamma
        density = (1.0 - alpha) * density + alpha * new_density

        alphas.append(alpha)
        energies.append(energy)
        evaluations.append(n_evals)
        if previous_energy is None:
            deltas.append(math.nan)
        else:
            delta = abs(energy - previous_energy)
            deltas.append(delta)
            if delta < config.threshold:
                converged = True
        previous_energy = energy
        if converged:
            break

    return EmbeddingState(
        iteration=iteration,
        damped_density=density,
        energy_history=tuple(energies),
        alpha_history=tuple(alphas),
        converged=converged,
        delta_history=tuple(deltas),
        solver_evaluations=tuple(evaluations),
        inactive_orbitals=tuple(inactive),
        active_orbitals=tuple(active),
        mean_field_energy=mf.energy,
    )


def write_iteration_log_csv(state: EmbeddingState, stream: IO[str]) -> None:
    """Emit the iteration log: iteration, alpha, energy, delta_energy,
    solver_evaluations.  The first delta is empty (no predecessor)."""
    writer = csv.writer(stream)
    writer.writerow(["iteration", "alpha", "energy", "delta_energy", "solver_evaluations"])
    offset = state.iteration - len(state.energy_history)
    for k in range(len(state.energy_history)):
        delta = state.delta_history[k]
        writer.writerow(
            [
                offset + k + 1,
                format(state.alpha_history[k], ".10g"),
                format(state.energy_history[k], ".10g"),
                "" if math.isnan(delta) else format(delta, ".10g"),
                state.solver_evaluations[k],
            ]
        )
