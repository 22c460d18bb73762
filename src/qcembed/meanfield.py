"""Restricted closed-shell self-consistent mean-field solver.

Operates directly in the orthonormal orbital basis of an
:class:`~qcembed.integrals.IntegralSet` (overlap = identity), so the
Roothaan step is an ordinary symmetric eigenproblem.  The converged
result provides the bath reference, densities and canonical orbitals
consumed by the active-space reduction and the embedding cycle.

Each Roothaan step is one ``np.linalg.eigh`` call (lower triangle, full
spectrum) after a finite-input check, so a non-finite Fock matrix raises
``ValueError`` before it reaches LAPACK.  The density 2 C_occ C_occ^T
does not depend on the eigenvectors' signs, so the signs are fixed once,
on the canonical orbitals returned.  The loop runs on h, the dense
(pq|rs) tensor and the core energy bound once per solve, through the
same private Fock and energy steps that :func:`build_fock` and
:func:`electronic_energy` run after their input checks.  The module
needs numpy only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .integrals import IntegralSet

__all__ = ["ScfError", "MeanFieldResult", "build_fock", "electronic_energy", "solve_rhf"]

_DEGENERACY_TOL = 1e-10


class ScfError(RuntimeError):
    """Unsupported system or contract violation in the mean-field solver."""


@dataclass(frozen=True)
class MeanFieldResult:
    """Converged (or best-effort) restricted mean-field solution.

    ``density`` is the spin-summed matrix D = 2 C_occ C_occ^T with
    trace equal to the electron count; ``orbital_coefficients`` holds
    molecular orbitals as columns, orthonormal in the input basis.
    ``energy_history`` records the total energy after each Roothaan
    iteration (diagnostics only).
    """

    energy: float
    orbital_energies: np.ndarray
    orbital_coefficients: np.ndarray
    density: np.ndarray
    converged: bool
    iterations: int
    energy_history: tuple[float, ...] = ()

    @property
    def n_occupied(self) -> int:
        return int(round(np.trace(self.density))) // 2


def coulomb_exchange(eri: np.ndarray, density: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(J, K) with J_pq = sum_rs (pq|rs) D_rs and K_pq = sum_rs (pr|sq) D_rs."""
    coulomb = np.einsum("pqrs,rs->pq", eri, density)
    exchange = np.einsum("prsq,rs->pq", eri, density)
    return coulomb, exchange


def _fock(h: np.ndarray, eri: np.ndarray, density: np.ndarray) -> np.ndarray:
    coulomb, exchange = coulomb_exchange(eri, density)
    return h + coulomb - 0.5 * exchange


def _energy(h: np.ndarray, core_energy: float, density: np.ndarray, fock: np.ndarray) -> float:
    return 0.5 * float((density * (h + fock)).sum()) + core_energy


def build_fock(integrals: IntegralSet, density: np.ndarray) -> np.ndarray:
    """Closed-shell Fock matrix F_pq = h_pq + sum_rs D_rs [(pq|rs) - (pr|sq)/2]."""
    density = np.asarray(density, dtype=float)
    n = integrals.n_orbitals
    if density.shape != (n, n):
        raise ScfError(f"density shape {density.shape} does not match {n} orbitals")
    return _fock(integrals.one_body, integrals.two_body_dense, density)


def electronic_energy(integrals: IntegralSet, density: np.ndarray, fock: np.ndarray) -> float:
    """Total energy 0.5 * sum_pq D_pq (h_pq + F_pq) + core."""
    return _energy(integrals.one_body, integrals.core_energy, density, fock)


def _fix_eigenvector_signs(vectors: np.ndarray) -> np.ndarray:
    # Deterministic convention: largest-magnitude component of each column
    # is made positive (ties resolved by the lower row index).
    out = vectors.copy()
    pivots = np.abs(out).argmax(axis=0)
    flip = out[pivots, np.arange(out.shape[1])] < 0
    return np.negative(out, out=out, where=flip)


def _diagonalize(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(eigenvalues, eigenvectors) of a symmetric matrix, signs unfixed."""
    if not np.isfinite(matrix).all():
        raise ValueError("array must not contain infs or NaNs")
    return np.linalg.eigh(matrix)


def _occupy(orbital_energies: np.ndarray, coefficients: np.ndarray, n_occ: int) -> np.ndarray:
    n = len(orbital_energies)
    if 0 < n_occ < n:
        gap = orbital_energies[n_occ] - orbital_energies[n_occ - 1]
        if abs(gap) < _DEGENERACY_TOL:
            raise ScfError(
                "degenerate HOMO at the Fermi level "
                f"(orbital energies {orbital_energies[n_occ - 1]:.12f} and "
                f"{orbital_energies[n_occ]:.12f}); restricted closed-shell "
                "occupation is ill-defined"
            )
    c_occ = coefficients[:, :n_occ]
    return 2.0 * c_occ @ c_occ.T


def solve_rhf(
    integrals: IntegralSet,
    max_iter: int = 100,
    tol: float = 1e-10,
    mixing: float = 0.5,
) -> MeanFieldResult:
    """Roothaan iterations with linear density mixing until |dE| < tol.

    Parameters
    ----------
    integrals
        Molecular integrals; the electron count must be even.
    max_iter
        Maximum number of Roothaan iterations (>= 1).
    tol
        Energy convergence threshold in Hartree.
    mixing
        Weight of the freshly built density in the linear mix,
        D <- (1 - mixing) D_old + mixing D_new.  1.0 disables mixing.

    Returns
    -------
    MeanFieldResult
        With ``converged=False`` (not an exception) if the energy change
        never drops below ``tol`` within ``max_iter`` iterations.
    """
    if integrals.n_electrons % 2 != 0:
        raise ScfError(
            f"restricted closed-shell solver requires an even electron count, got {integrals.n_electrons}"
        )
    if max_iter < 1:
        raise ScfError(f"max_iter must be >= 1, got {max_iter}")
    if not 0.0 < mixing <= 1.0:
        raise ScfError(f"mixing must lie in (0, 1], got {mixing}")

    n_occ = integrals.n_electrons // 2
    h, eri, core_energy = integrals.one_body, integrals.two_body_dense, integrals.core_energy

    # Core guess: occupy the lowest eigenvectors of h.
    eps, coeff = _diagonalize(h)
    density = _occupy(eps, coeff, n_occ)
    fock = _fock(h, eri, density)
    energy = _energy(h, core_energy, density, fock)

    converged = False
    iterations = 0
    history: list[float] = []
    for iteration in range(1, max_iter + 1):
        iterations = iteration
        eps, coeff = _diagonalize(fock)
        new_density = _occupy(eps, coeff, n_occ)
        density = (1.0 - mixing) * density + mixing * new_density
        fock = _fock(h, eri, density)
        new_energy = _energy(h, core_energy, density, fock)
        delta = abs(new_energy - energy)
        energy = new_energy
        history.append(energy)
        if delta < tol:
            converged = True
            break

    # Sign-fixed canonical orbitals and idempotent density from the final Fock.
    eps, coeff = _diagonalize(fock)
    coeff = _fix_eigenvector_signs(coeff)
    density = _occupy(eps, coeff, n_occ)
    fock = _fock(h, eri, density)
    energy = _energy(h, core_energy, density, fock)

    return MeanFieldResult(
        energy=energy,
        orbital_energies=eps,
        orbital_coefficients=coeff,
        density=density,
        converged=converged,
        iterations=iterations,
        energy_history=tuple(history),
    )
