"""Restricted closed-shell self-consistent mean-field solver.

Operates directly in the orthonormal orbital basis of an
:class:`~qcembed.integrals.IntegralSet` (overlap = identity), so the
Roothaan step is an ordinary symmetric eigenproblem.  The converged
result provides the bath reference, densities and canonical orbitals
consumed by the active-space reduction and the embedding cycle.

The one Roothaan loop steps a stack of same-shape systems (h as (B, n, n),
(pq|rs) as (B, n, n, n, n)) with one ``np.linalg.eigh`` call (lower
triangle, full spectrum) per step for the whole stack; :func:`solve_rhf`
is a stack of one.  Each member follows its lone path bitwise.  The step
after its last one closes it: the signs of that step's eigenvectors are
fixed, once, and occupied without mixing (the density 2 C_occ C_occ^T does
not depend on them).  A closed or failed member leaves the stack; a
non-finite Fock matrix raises ``ValueError`` before it reaches LAPACK.  The
Fock and energy steps are those of :func:`build_fock`,
:func:`electronic_energy` and the frozen-core reduction.  Needs numpy only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

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
    iteration (diagnostics only).  The loop stops on |dE| < tol alone, so
    the orbitals are converged only to about 1e-6 (occupied-virtual Fock
    elements of 9.3e-7 on LiH STO-3G); ``orbital_energies`` are the
    eigenvalues of the last mixed density's Fock, not of ``density``'s.
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


def _fock(h: np.ndarray, eri: np.ndarray, density: np.ndarray) -> np.ndarray:
    """h + J - K/2 with J_pq = sum_rs (pq|rs) D_rs and K_pq = sum_rs (pr|sq) D_rs, per stacked member."""
    coulomb = np.einsum("...pqrs,...rs->...pq", eri, density)
    exchange = np.einsum("...prsq,...rs->...pq", eri, density)
    return h + coulomb - 0.5 * exchange


def _energies(h: np.ndarray, core_energies: list[float], density: np.ndarray, fock: np.ndarray) -> list[float]:
    sums = (density * (h + fock)).sum(axis=(-2, -1)).ravel().tolist()
    return [0.5 * total + core for total, core in zip(sums, core_energies)]


def build_fock(integrals: IntegralSet, density: np.ndarray) -> np.ndarray:
    """Closed-shell Fock matrix F_pq = h_pq + sum_rs D_rs [(pq|rs) - (pr|sq)/2]."""
    density = np.asarray(density, dtype=float)
    n = integrals.n_orbitals
    if density.shape != (n, n):
        raise ScfError(f"density shape {density.shape} does not match {n} orbitals")
    return _fock(integrals.one_body, integrals.two_body_dense, density)


def electronic_energy(integrals: IntegralSet, density: np.ndarray, fock: np.ndarray) -> float:
    """Total energy 0.5 * sum_pq D_pq (h_pq + F_pq) + core."""
    return _energies(integrals.one_body, [integrals.core_energy], density, fock)[0]


def _fix_eigenvector_signs(vectors: np.ndarray) -> np.ndarray:
    # Deterministic convention: largest-magnitude component of each column
    # is made positive (ties resolved by the lower row index).
    out = vectors.copy()
    pivots = np.abs(out).argmax(axis=0)
    flip = out[pivots, np.arange(out.shape[1])] < 0
    return np.negative(out, out=out, where=flip)


def _occupy(coefficients: np.ndarray, n_occ: int) -> np.ndarray:
    c_occ = coefficients[..., :n_occ]
    return 2.0 * c_occ @ c_occ.swapaxes(-1, -2)


def _fail_non_finite(matrices: np.ndarray, members: list[int], outcomes: list) -> None:
    # the member of each non-finite matrix fails LAPACK's input check, on its own
    for k, finite in zip(members, np.isfinite(matrices).all(axis=(-2, -1)).tolist()):
        if not finite:
            outcomes[k] = ValueError("array must not contain infs or NaNs")


def _fail_degenerate(orbital_energies: np.ndarray, members: list[int], outcomes: list, n_occ: int) -> None:
    if not 0 < n_occ < orbital_energies.shape[-1]:
        return
    for k, levels in zip(members, orbital_energies.tolist()):
        homo, lumo = levels[n_occ - 1], levels[n_occ]
        if abs(lumo - homo) < _DEGENERACY_TOL:
            outcomes[k] = ScfError(
                "degenerate HOMO at the Fermi level "
                f"(orbital energies {homo:.12f} and {lumo:.12f}); restricted closed-shell "
                "occupation is ill-defined"
            )


def _stack(arrays: list[np.ndarray]) -> np.ndarray:
    # a lone member is viewed, not copied: a paper-scale (pq|rs) is too large to duplicate
    return arrays[0][None] if len(arrays) == 1 else np.stack(arrays)


def _input_error(integrals: IntegralSet, max_iter: int, mixing: float) -> ScfError | None:
    if integrals.n_electrons % 2 != 0:
        n_electrons = integrals.n_electrons
        return ScfError(f"restricted closed-shell solver requires an even electron count, got {n_electrons}")
    if max_iter < 1:
        return ScfError(f"max_iter must be >= 1, got {max_iter}")
    if not 0.0 < mixing <= 1.0:
        return ScfError(f"mixing must lie in (0, 1], got {mixing}")
    return None


@np.errstate(over="ignore", invalid="ignore")  # an inf or NaN fails its member alone, not the stack
def _solve_stack(
    systems: Sequence[IntegralSet], max_iter: int = 100, tol: float = 1e-10, mixing: float = 0.5
) -> list[MeanFieldResult | Exception]:
    """:func:`solve_rhf` on a stack of systems of one (n_orbitals, n_electrons)
    shape: entry k is bitwise ``solve_rhf(systems[k], ...)``'s result, or the
    exception it raises.  A member that stops at step s is closed by step
    s + 1 and then leaves the stack, as a failed one does at once."""
    if len({(s.n_orbitals, s.n_electrons) for s in systems}) > 1:
        raise ScfError("a stack holds systems of one (n_orbitals, n_electrons) shape")
    outcomes: list = [_input_error(integrals, max_iter, mixing) for integrals in systems]
    rows = [k for k, outcome in enumerate(outcomes) if outcome is None]  # the member of each stacked row
    if not rows:
        return outcomes
    n_occ, core = systems[0].n_electrons // 2, [systems[k].core_energy for k in rows]
    h = _stack([systems[k].one_body for k in rows])
    eri = _stack([systems[k].two_body_dense for k in rows])
    histories: dict[int, list[float]] = {k: [] for k in rows}
    stopped: dict[int, bool] = {}  # member: converged, till the next step closes it

    # step 0 takes the core guess (h's occupied eigenvectors); steps 1..max_iter mix;
    # the step after a member's last one closes it on its last Fock matrix, unmixed
    fock, density, energies, leaving = h, h, [0.0] * len(rows), False
    for step in range(max_iter + 2):
        if not np.isfinite(fock).all():
            _fail_non_finite(fock, rows, outcomes)
            leaving = True
        if leaving:
            keep = [i for i, k in enumerate(rows) if outcomes[k] is None]
            if not keep:
                break
            rows, core, energies = ([x[i] for i in keep] for x in (rows, core, energies))
            h, eri, fock, density = h[keep], eri[keep], fock[keep], density[keep]
            leaving = False
        eps, coeff = np.linalg.eigh(fock)
        _fail_degenerate(eps, rows, outcomes, n_occ)
        new_density = _occupy(coeff, n_occ)
        closing = [i for i, k in enumerate(rows) if k in stopped] if stopped else []
        if step == 0 or len(closing) == len(rows):  # the core guess and a closing step do not mix
            density = new_density
        else:
            density = (1.0 - mixing) * density + mixing * new_density
            if closing:
                density[closing] = new_density[closing]
        fock = _fock(h, eri, density)
        new_energies = _energies(h, core, density, fock)
        for i, k in enumerate(rows):
            if k in stopped and outcomes[k] is None:
                outcomes[k] = MeanFieldResult(
                    energy=new_energies[i],
                    orbital_energies=eps[i],
                    orbital_coefficients=_fix_eigenvector_signs(coeff[i]),
                    density=density[i],
                    converged=stopped.pop(k),
                    iterations=len(histories[k]),
                    energy_history=tuple(histories[k]),
                )
            if outcomes[k] is not None:  # closed or failed
                leaving = True
            elif step:
                histories[k].append(new_energies[i])
                converged = abs(new_energies[i] - energies[i]) < tol
                if converged or step == max_iter:
                    stopped[k] = converged
        energies = new_energies
    return outcomes


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
    (outcome,) = _solve_stack([integrals], max_iter, tol, mixing)
    if isinstance(outcome, Exception):
        raise outcome
    return outcome
