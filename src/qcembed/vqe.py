"""Variational quantum eigensolver driver.

Parameters start from a seeded Gaussian draw (sigma = 0.001 by default,
sigma = 0 gives the plain Hartree-Fock start), the objective is the
exact statevector expectation of the qubit Hamiltonian, and minimization
uses bound-constrained L-BFGS-B with central finite-difference
gradients.  Every objective evaluation is recorded in an ordered trace;
the optimizer stops when the energy change between accepted iterates
drops below the tolerance or the iteration cap is reached.

Each point theta the optimizer evaluates is simulated once, with the 2n
shifted points of its gradient, in one sweep: the rows theta,
theta + h e_0, theta - h e_0, theta + h e_1, ... of a ((2n+1) x n)
matrix, whose energies come from ``sim._block_energies``, built once per
call from the ansatz and the Hamiltonian: the register is sim's alone.  L-BFGS-B
takes energy and gradient from one sweep (``jac=True``), which records
theta's energy and then the shifted ones (+theta_0, -theta_0, +theta_1,
...), each one evaluation, as a serial loop would.  An
accepted iterate's callback entry is the energy scipy hands over in
``intermediate_result``: the one just returned for that point.  The
callback ends the run with ``StopIteration`` on the energy-change stop.

The optimizer's own linear algebra runs with scipy's bundled OpenBLAS
held to the calling thread (``_openblas.calling_thread`` says why).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import _openblas
from .pauli import PauliSum
from .sim import UccsdAnsatz, _block_energies
# evolve_ansatz and expectation are not called here but stay importable
# from this module: bench/layers.py wraps them by name
from .sim import evolve_ansatz, expectation  # noqa: F401

__all__ = ["VqeConfig", "VqeResult", "VqeError", "initialize_parameters", "minimize"]

_PARAMETER_BOUND = np.pi  # exp(theta G) is 2*pi-periodic in this representation


class VqeError(RuntimeError):
    """Optimizer diagnostic failure; carries the evaluation trace so far."""

    def __init__(self, message: str, trace: list[tuple[int, float]]):
        super().__init__(message)
        self.trace = trace


@dataclass(frozen=True)
class VqeConfig:
    """Optimizer settings.

    ``sigma`` is the standard deviation of the seeded Gaussian parameter
    initialization, ``tolerance`` the energy convergence threshold in
    Hartree, and ``gradient_step`` the central-difference step.
    """

    seed: int = 0
    sigma: float = 0.001
    max_iterations: int = 50
    tolerance: float = 1e-6
    gradient_step: float = 1e-6

    def __post_init__(self):
        for name in ("sigma", "tolerance", "gradient_step"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.sigma < 0:
            raise ValueError(f"sigma must be >= 0, got {self.sigma}")
        if self.max_iterations < 1:
            raise ValueError(f"max_iterations must be >= 1, got {self.max_iterations}")
        if self.tolerance <= 0:
            raise ValueError(f"tolerance must be positive, got {self.tolerance}")
        if self.gradient_step <= 0:
            raise ValueError(f"gradient_step must be positive, got {self.gradient_step}")


@dataclass(frozen=True)
class VqeResult:
    """Minimization outcome.

    ``trace`` lists every objective evaluation as (evaluation_index,
    energy); ``iterate_energies`` holds the energies of the accepted
    optimizer iterates (monotone non-increasing).  ``iterations`` counts
    the accepted iterates, ``message`` says why the optimizer stopped
    and ``gradient_norm`` is the max-norm of the last gradient computed
    (0.0 with no parameters).
    """

    energy: float
    parameters: np.ndarray
    trace: tuple[tuple[int, float], ...]
    evaluations: int
    converged: bool
    iterate_energies: tuple[float, ...] = field(default=())
    iterations: int = 0
    message: str = ""
    gradient_norm: float = float("nan")


def initialize_parameters(n: int, config: VqeConfig) -> np.ndarray:
    """n draws from Normal(0, sigma^2) with a seeded deterministic generator."""
    if n < 0:
        raise ValueError(f"parameter count must be >= 0, got {n}")
    rng = np.random.default_rng(config.seed)
    if config.sigma == 0.0:
        return np.zeros(n)
    return rng.normal(0.0, config.sigma, size=n)


def minimize(hamiltonian: PauliSum, ansatz: UccsdAnsatz, config: VqeConfig | None = None) -> VqeResult:
    """Minimize theta -> <psi(theta)| H |psi(theta)> over the ansatz parameters."""
    import scipy.optimize  # here: import qcembed and FCI runs load no scipy at all

    if config is None:
        config = VqeConfig()

    trace: list[tuple[int, float]] = []

    def record(energies: list[float]) -> list[float]:
        """Append ``energies`` to the trace, each one evaluation; at a
        non-finite one, raise with the trace up to it instead."""
        start = len(trace)
        if not all(map(math.isfinite, energies)):
            bad = next(k for k, energy in enumerate(energies) if not math.isfinite(energy))
            raise VqeError(
                f"non-finite energy {energies[bad]} during optimization",
                trace + list(zip(range(start, start + bad), energies[:bad])),
            )
        trace.extend(zip(range(start, start + len(energies)), energies))
        return energies

    n = ansatz.n_parameters
    x0 = initialize_parameters(n, config)
    k = np.arange(n)
    energies_of = _block_energies(ansatz, hamiltonian)

    def sweep(theta: np.ndarray) -> list[float]:
        h = config.gradient_step
        theta = np.array(theta, dtype=float)
        rows = np.repeat(theta[None, :], 2 * n + 1, axis=0)
        rows[2 * k + 1, k] = theta + h
        rows[2 * k + 2, k] = theta - h
        return energies_of(rows).tolist()

    gradient_norm = float("nan")

    def energy_and_gradient(theta: np.ndarray) -> tuple[float, np.ndarray]:
        nonlocal gradient_norm
        energy, *shifted = record(sweep(theta))
        shifted = np.array(shifted)
        gradient = (shifted[0::2] - shifted[1::2]) / (2.0 * config.gradient_step)
        gradient_norm = float(np.max(np.abs(gradient)))
        return energy, gradient

    iterate_energies: list[float] = []

    def settled() -> bool:
        last = iterate_energies[-2:]
        return len(last) == 2 and abs(last[1] - last[0]) < config.tolerance

    def callback(intermediate_result: scipy.optimize.OptimizeResult) -> None:
        iterate_energies.extend(record([float(intermediate_result.fun)]))
        if settled():
            raise StopIteration

    if n == 0:
        energy, parameters = record(sweep(x0))[0], x0
        converged, message, gradient_norm = True, "no parameters to optimize", 0.0
    else:
        with _openblas.calling_thread():
            result = scipy.optimize.minimize(
                energy_and_gradient,
                x0,
                jac=True,
                method="L-BFGS-B",
                bounds=scipy.optimize.Bounds(np.full(n, -_PARAMETER_BOUND), np.full(n, _PARAMETER_BOUND)),
                callback=callback,
                options={"maxiter": config.max_iterations, "ftol": 0.0, "gtol": 1e-12},
            )
        energy, parameters = float(result.fun), result.x
        converged = settled()  # true exactly when the callback stopped the run
        if converged:
            # scipy's message for this stop only says that the callback raised StopIteration
            message = f"energy change between iterates below tolerance {config.tolerance:g}"
        else:
            message = str(result.message)

    iterations = len(iterate_energies)
    if not iterate_energies:
        iterate_energies.append(energy)

    return VqeResult(
        energy=energy,
        parameters=np.array(parameters, dtype=float),
        trace=tuple(trace),
        evaluations=len(trace),
        converged=converged,
        iterate_energies=tuple(iterate_energies),
        iterations=iterations,
        message=message,
        gradient_norm=gradient_norm,
    )

