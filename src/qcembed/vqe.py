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
matrix, simulated in blocks of at most ``_BLOCK_AMPLITUDES`` amplitudes
with the statevector kernels' row forms.  The trace is that of a
serial loop: theta's energy when the optimizer asks for it, the shifted
energies (+theta_0, -theta_0, +theta_1, ...) when it asks for the
gradient at theta, each one evaluation.  An accepted iterate's callback
entry is the energy of the last swept point, which is that iterate.  A
gradient or an iterate at any other point is swept afresh, so every
energy comes from the same row kernels.

The optimizer's own linear algebra runs with scipy's bundled OpenBLAS
held to one thread: L-BFGS-B solves its small BFGS matrices with LAPACK
``dtrtrs``, whose calls there OpenBLAS hands to its thread pool, and the
woken worker then spins between the optimizer's ``setulb`` calls for the
whole minimization, burning a second core for no speed.
"""

from __future__ import annotations

import csv
import ctypes
import functools
import math
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO

import numpy as np

from .pauli import PauliSum
# evolve_ansatz and expectation are not called here but stay importable
# from this module: bench/layers.py wraps them by name
from .sim import UccsdAnsatz, _evolve_rows, _expectation_rows, evolve_ansatz, expectation

__all__ = ["VqeConfig", "VqeResult", "VqeError", "initialize_parameters", "minimize", "write_trace_csv"]

_PARAMETER_BOUND = np.pi  # exp(theta G) is 2*pi-periodic in this representation

# amplitudes per block of gradient rows: the fastest block measured at 8 and
# 10 qubits (smaller blocks pay more numpy calls, larger ones fall out of cache)
_BLOCK_AMPLITUDES = 2**14


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


class _Converged(Exception):
    pass


@functools.cache
def _scipy_openblas() -> ctypes.CDLL | None:
    """scipy's bundled OpenBLAS (``scipy.libs/libscipy_openblas*.so``
    beside the scipy package), or None when scipy uses another BLAS or
    the library lacks ``openblas_set_num_threads_local``."""
    import scipy

    paths = sorted(Path(scipy.__file__).parents[1].glob("scipy.libs/libscipy_openblas*.so"))
    if not paths:
        return None
    try:
        library = ctypes.CDLL(str(paths[0]))
        set_threads = library.openblas_set_num_threads_local
    except (OSError, AttributeError):
        return None
    set_threads.argtypes = [ctypes.c_int]
    set_threads.restype = ctypes.c_int  # the previous thread count
    return library


# In scipy's pthreads OpenBLAS the thread count is one process-wide value,
# so overlapping minimizations share one pin: the first to enter saves the
# count, the last to leave restores it.
_pin_lock = threading.Lock()
_pin = {"depth": 0, "saved": 1}


@contextmanager
def _blas_on_calling_thread():
    """Hold scipy's OpenBLAS to the calling thread for the duration and
    restore the previous thread count on every exit; without scipy's
    bundled OpenBLAS this does nothing."""
    library = _scipy_openblas()
    if library is None:
        yield
        return
    with _pin_lock:
        if _pin["depth"] == 0:
            _pin["saved"] = library.openblas_set_num_threads_local(1)
        _pin["depth"] += 1
    try:
        yield
    finally:
        with _pin_lock:
            _pin["depth"] -= 1
            if _pin["depth"] == 0:
                library.openblas_set_num_threads_local(_pin["saved"])


def minimize(hamiltonian: PauliSum, ansatz: UccsdAnsatz, config: VqeConfig | None = None) -> VqeResult:
    """Minimize theta -> <psi(theta)| H |psi(theta)> over the ansatz parameters."""
    import scipy.optimize  # here: import qcembed and FCI runs load no scipy at all

    if config is None:
        config = VqeConfig()
    if hamiltonian.n_qubits != ansatz.n_qubits:
        raise ValueError(
            f"hamiltonian acts on {hamiltonian.n_qubits} qubits, ansatz on {ansatz.n_qubits}"
        )

    trace: list[tuple[int, float]] = []

    def record(energy: float) -> float:
        if not math.isfinite(energy):
            raise VqeError(f"non-finite energy {energy} during optimization", list(trace))
        trace.append((len(trace), energy))
        return energy

    n = ansatz.n_parameters
    x0 = initialize_parameters(n, config)
    block_rows = max(1, _BLOCK_AMPLITUDES // 2**ansatz.n_qubits)
    k = np.arange(n)
    # the last swept point and its 2n+1 energies, in trace order
    swept: dict[str, np.ndarray | list[float] | None] = {"theta": None, "energies": None}
    last_gradient = {"norm": float("nan")}

    def sweep(theta: np.ndarray) -> list[float]:
        h = config.gradient_step
        theta = np.array(theta, dtype=float)
        rows = np.repeat(theta[None, :], 2 * n + 1, axis=0)
        rows[2 * k + 1, k] = theta + h
        rows[2 * k + 2, k] = theta - h
        energies = np.concatenate([
            _expectation_rows(_evolve_rows(ansatz, rows[start : start + block_rows]), hamiltonian)
            for start in range(0, 2 * n + 1, block_rows)
        ]).tolist()
        swept["theta"], swept["energies"] = theta, energies
        return energies

    def energies_at(theta: np.ndarray) -> list[float]:
        # scipy asks for the gradient at the point it has just evaluated and
        # reports that point as the iterate; any other point is swept afresh
        if swept["theta"] is not None and np.array_equal(swept["theta"], theta):
            return swept["energies"]  # type: ignore[return-value]
        return sweep(theta)

    if n == 0:
        energy = record(sweep(x0)[0])
        return VqeResult(
            energy=energy,
            parameters=x0,
            trace=tuple(trace),
            evaluations=len(trace),
            converged=True,
            iterate_energies=(energy,),
            message="no parameters to optimize",
            gradient_norm=0.0,
        )

    def objective(theta: np.ndarray) -> float:
        return record(sweep(theta)[0])

    def gradient(theta: np.ndarray) -> np.ndarray:
        shifted = np.array([record(energy) for energy in energies_at(theta)[1:]])
        grad = (shifted[0::2] - shifted[1::2]) / (2.0 * config.gradient_step)
        last_gradient["norm"] = float(np.max(np.abs(grad)))
        return grad

    iterate_energies: list[float] = []
    best: dict[str, tuple[np.ndarray, float] | None] = {"value": None}

    def callback(xk: np.ndarray) -> None:
        energy = record(energies_at(xk)[0])
        previous = iterate_energies[-1] if iterate_energies else None
        iterate_energies.append(energy)
        best["value"] = (np.array(xk, dtype=float), energy)
        if previous is not None and abs(energy - previous) < config.tolerance:
            raise _Converged

    converged = False
    try:
        with _blas_on_calling_thread():
            result = scipy.optimize.minimize(
                objective,
                x0,
                jac=gradient,
                method="L-BFGS-B",
                bounds=[(-_PARAMETER_BOUND, _PARAMETER_BOUND)] * n,
                callback=callback,
                options={
                    "maxiter": config.max_iterations,
                    "ftol": 0.0,
                    "gtol": 1e-12,
                },
            )
        parameters = np.array(result.x, dtype=float)
        energy = float(result.fun)
        message = str(result.message)
        if len(iterate_energies) >= 2:
            converged = abs(iterate_energies[-1] - iterate_energies[-2]) < config.tolerance
    except _Converged:
        parameters, energy = best["value"]  # type: ignore[misc]
        converged = True
        message = f"energy change between iterates below tolerance {config.tolerance:g}"

    iterations = len(iterate_energies)
    if not iterate_energies:
        iterate_energies.append(energy)

    return VqeResult(
        energy=energy,
        parameters=parameters,
        trace=tuple(trace),
        evaluations=len(trace),
        converged=converged,
        iterate_energies=tuple(iterate_energies),
        iterations=iterations,
        message=message,
        gradient_norm=last_gradient["norm"],
    )


def write_trace_csv(trace, stream: IO[str]) -> None:
    """Emit the evaluation trace as CSV (evaluation_index, energy)."""
    writer = csv.writer(stream)
    writer.writerow(["evaluation_index", "energy"])
    for index, energy in trace:
        writer.writerow([index, format(energy, ".10g")])
