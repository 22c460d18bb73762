"""Active-space selection and frozen-core reduction.

A full integral set plus a converged mean-field reference is reduced to
an effective Hamiltonian for ``n_active_electrons`` in
``n_active_orbitals``.  Selection uses a Fermi-centered window in the
canonical orbital-energy ordering: the highest occupied orbitals supply
the active electrons and the lowest virtuals fill the remaining slots.
The frozen doubly occupied orbitals enter through an effective one-body
term and a scalar energy shift.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .integrals import IntegralSet, SymmetricTwoBody
from .meanfield import MeanFieldResult, _energies, _fock

__all__ = [
    "ActiveSpaceError",
    "ActiveSpaceSpec",
    "ActiveHamiltonian",
    "select_orbitals",
    "reduce_integrals",
    "reduce_in_orbital_basis",
    "transform_to_mo_basis",
]


class ActiveSpaceError(ValueError):
    """Invalid or unsatisfiable active-space specification."""


def _split_sector(n_orbitals: int, n_electrons: int, twice_sz: int, error: type[Exception]) -> tuple[int, int]:
    """(N_alpha, N_beta) of n_electrons at 2 S_z = twice_sz in n_orbitals,
    the one sector definition of ``fci`` and ``sim``; raises the caller's
    ``error`` class when there is no such sector."""
    if (n_electrons + twice_sz) % 2 != 0:
        raise error(f"inconsistent (n_electrons={n_electrons}, 2S_z={twice_sz})")
    n_alpha = (n_electrons + twice_sz) // 2
    return _check_sector(n_orbitals, n_alpha, n_electrons - n_alpha, error)


def _check_sector(n_orbitals: int, n_alpha: int, n_beta: int, error: type[Exception]) -> tuple[int, int]:
    """(n_alpha, n_beta) if 0 <= n_alpha, n_beta <= n_orbitals, else ``error``."""
    if not (0 <= n_alpha <= n_orbitals and 0 <= n_beta <= n_orbitals):
        raise error(f"cannot place ({n_alpha} alpha, {n_beta} beta) electrons in {n_orbitals} orbitals")
    return n_alpha, n_beta


@dataclass(frozen=True)
class ActiveSpaceSpec:
    """Requested (n_active_electrons, n_active_orbitals) window.

    The degenerate (0, 0) spec is permitted and means "no active space":
    the reduction then returns an empty Hamiltonian and the total energy
    falls back to the mean-field reference.
    """

    n_active_electrons: int
    n_active_orbitals: int

    def __post_init__(self):
        ne, no = self.n_active_electrons, self.n_active_orbitals
        if ne < 0 or no < 0:
            raise ActiveSpaceError(f"active-space counts must be non-negative, got ({ne}, {no})")
        if ne % 2 != 0:
            raise ActiveSpaceError(f"n_active_electrons must be even, got {ne}")
        if ne > 2 * no:
            raise ActiveSpaceError(f"{ne} electrons do not fit in {no} orbitals")

    @property
    def is_empty(self) -> bool:
        return self.n_active_orbitals == 0

    @property
    def label(self) -> str:
        return f"({self.n_active_electrons}e,{self.n_active_orbitals}o)"


@dataclass(frozen=True)
class ActiveHamiltonian:
    """Effective Hamiltonian over the active orbital window.

    ``one_body_eff`` includes the mean-field potential of the frozen
    orbitals; ``inactive_energy`` carries the core energy plus the
    frozen-orbital contribution, so the total energy is
    inactive_energy + <active electronic Hamiltonian>.
    """

    n_orbitals: int
    n_electrons: int
    inactive_energy: float
    one_body_eff: np.ndarray
    two_body: SymmetricTwoBody = field(repr=False)

    def __post_init__(self):
        h = np.asarray(self.one_body_eff, dtype=float)
        if h.shape != (self.n_orbitals, self.n_orbitals):
            raise ActiveSpaceError("one_body_eff shape does not match n_orbitals")
        object.__setattr__(self, "one_body_eff", h)

    def two_body_dense(self) -> np.ndarray:
        return self.two_body.dense()


def select_orbitals(mf: MeanFieldResult, spec: ActiveSpaceSpec) -> tuple[list[int], list[int]]:
    """Split canonical orbitals into (inactive, active) index lists.

    Orbitals are assumed sorted by ascending orbital energy (as
    delivered by the mean-field solver).  The active window takes the
    ``n_active_electrons / 2`` highest occupied orbitals plus enough of
    the lowest virtuals to reach ``n_active_orbitals``; all remaining
    occupied orbitals are frozen.
    """
    n = len(mf.orbital_energies)
    n_occ = mf.n_occupied
    act_occ = spec.n_active_electrons // 2
    act_virt = spec.n_active_orbitals - act_occ

    if spec.n_active_orbitals > n:
        raise ActiveSpaceError(
            f"active window of {spec.n_active_orbitals} orbitals exceeds {n} available"
        )
    if act_occ > n_occ:
        raise ActiveSpaceError(
            f"{spec.n_active_electrons} active electrons need {act_occ} occupied orbitals, "
            f"only {n_occ} are occupied"
        )
    if act_virt > n - n_occ:
        raise ActiveSpaceError(
            f"active window needs {act_virt} virtual orbitals, only {n - n_occ} exist "
            f"({spec.label} on {n} orbitals with {2 * n_occ} electrons)"
        )

    inactive = list(range(n_occ - act_occ))
    active = list(range(n_occ - act_occ, n_occ + act_virt))
    return inactive, active


def transform_to_mo_basis(
    integrals: IntegralSet, coefficients: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Rotate one- and two-body integrals into the molecular-orbital basis.

    The four quarter transforms run as ``np.einsum(..., optimize=True)``
    runs each of them, without its path search: the summed axis moved
    last, one (n^3 x n) @ (n x m) matmul, the new axis moved back in place.
    The bits are einsum's, but for a one-orbital tensor, which einsum
    multiplies out: there the 1 x 1 matmul can turn a -0.0 into +0.0.
    """
    c = np.asarray(coefficients)
    h_mo = c.T @ integrals.one_body @ c
    eri = integrals.two_body_dense
    for axis in range(4):
        moved = eri.transpose([k for k in range(4) if k != axis] + [axis])
        product = moved.reshape(-1, moved.shape[-1]) @ c
        back = [0, 1, 2][:axis] + [3] + [0, 1, 2][axis:]
        eri = product.reshape(moved.shape[:-1] + product.shape[-1:]).transpose(back)
    return h_mo, eri


def reduce_in_orbital_basis(
    h: np.ndarray,
    eri: np.ndarray,
    core_energy: float,
    inactive: list[int],
    active: list[int],
    n_active_electrons: int,
) -> ActiveHamiltonian:
    """Frozen-core reduction with integrals already in the working basis.

    The bath density D_env doubly occupies the inactive orbitals.  The
    embedding cycle reduces once per run: its damped density keeps
    exactly these occupations outside the active window, so the bath
    Fock operator never changes between iterations.  The mean-field
    solver's own Fock and energy steps on D_env give

        h_eff = h + J[D_env] - K[D_env]/2
        inactive_energy = core + Tr[D_env (h + h_eff)] / 2
    """
    env_density = np.zeros(h.shape)
    env_density[inactive, inactive] = 2.0

    h_eff = _fock(h, eri, env_density)
    (inactive_energy,) = _energies(h, [core_energy], env_density, h_eff)

    idx = np.asarray(active, dtype=int)
    if len(idx):
        h_active = h_eff[np.ix_(idx, idx)]
        eri_active = eri[np.ix_(idx, idx, idx, idx)]
        two_body = SymmetricTwoBody.from_dense(eri_active)
    else:
        h_active = np.zeros((0, 0))
        two_body = SymmetricTwoBody(0)

    return ActiveHamiltonian(
        n_orbitals=len(active),
        n_electrons=n_active_electrons,
        inactive_energy=inactive_energy,
        one_body_eff=h_active,
        two_body=two_body,
    )


def reduce_integrals(
    integrals: IntegralSet, mf: MeanFieldResult, spec: ActiveSpaceSpec
) -> ActiveHamiltonian:
    """Reduce a full integral set to the active window of ``spec``.

    Works in the molecular-orbital basis of ``mf``; the frozen orbitals
    are the doubly occupied ones outside the window.  With an empty
    inactive list the result reproduces the input integrals exactly and
    ``inactive_energy`` equals the core energy.
    """
    inactive, active = select_orbitals(mf, spec)
    h_mo, eri_mo = transform_to_mo_basis(integrals, mf.orbital_coefficients)
    return reduce_in_orbital_basis(
        h_mo, eri_mo, integrals.core_energy, inactive, active, spec.n_active_electrons
    )
