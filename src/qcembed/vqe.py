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
with the statevector kernels' row forms, all reading the Hamiltonian's
X-mask table that the call compiles before its first sweep.  L-BFGS-B
takes energy and gradient from one sweep (``jac=True``), which records
theta's energy and then the shifted ones (+theta_0, -theta_0, +theta_1,
...), each one evaluation, as a serial loop would.  An
accepted iterate's callback entry is the energy scipy hands over in
``intermediate_result``: the one just returned for that point.  The
callback ends the run with ``StopIteration`` on the energy-change stop.

The optimizer's own linear algebra runs with scipy's bundled OpenBLAS
held to one thread: L-BFGS-B solves its small BFGS matrices with LAPACK
``dtrtrs``, whose calls there OpenBLAS hands to its thread pool, and the
woken worker then spins between the optimizer's ``setulb`` calls for the
whole minimization, burning a second core for no speed.
"""

from __future__ import annotations

import ctypes
import functools
import math
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .pauli import PauliSum
from .sim import UccsdAnsatz, _evolve_rows, _expectation_rows, _grouped_operator
# evolve_ansatz and expectation are not called here but stay importable
# from this module: bench/layers.py wraps them by name
from .sim import evolve_ansatz, expectation  # noqa: F401

__all__ = ["VqeConfig", "VqeResult", "VqeError", "initialize_parameters", "minimize"]

_PARAMETER_BOUND = np.pi  # exp(theta G) is 2*pi-periodic in this representation

# float64 amplitudes per block of gradient rows: the fastest block measured at
# 8 and 10 qubits (smaller blocks pay more numpy calls, larger ones fall out of
# cache).  One central-difference sweep of H8 (4e,5o) and (4e,6o) on a 2-vCPU
# VM, median of 10 alternating runs: 2^14 5.7 and 88.9 ms, 2^15 4.8 and
# 66.0 ms (10 of 10 runs faster at both), 2^16 4.7 and 70.9 ms.
_BLOCK_AMPLITUDES = 2**15


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
    block_rows = max(1, _BLOCK_AMPLITUDES // 2**ansatz.n_qubits)
    k = np.arange(n)
    support = ansatz._support
    table = _grouped_operator(hamiltonian, support)

    def sweep(theta: np.ndarray) -> list[float]:
        h = config.gradient_step
        theta = np.array(theta, dtype=float)
        rows = np.repeat(theta[None, :], 2 * n + 1, axis=0)
        rows[2 * k + 1, k] = theta + h
        rows[2 * k + 2, k] = theta - h
        return np.concatenate([
            _expectation_rows(_evolve_rows(ansatz, rows[start : start + block_rows]), table, support)
            for start in range(0, 2 * n + 1, block_rows)
        ]).tolist()

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
        with _blas_on_calling_thread():
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

