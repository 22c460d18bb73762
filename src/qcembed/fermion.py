"""Second-quantized fermionic operators over spin orbitals.

Spin orbitals use blocked ordering: modes 0..M-1 are the alpha spins of
the M spatial orbitals, modes M..2M-1 the beta spins.  This choice makes
the two parity-symmetry qubits land at fixed positions (M-1 and 2M-1)
after the parity mapping, which the two-qubit reduction relies on.
"""

from __future__ import annotations

from typing import Iterable, Mapping

import numpy as np

from .activespace import ActiveHamiltonian
from .integrals import canonical_classes

__all__ = [
    "FermionTerm",
    "FermionOperator",
    "hamiltonian_columns",
    "integral_vector",
    "spin_orbital_hamiltonian",
    "excitation_term",
    "excitation_generator",
]

# A term is a product of ladder operators applied right-to-left:
# ((mode, is_creation), ...) with coefficients collected in a dict.
FermionTerm = tuple[tuple[int, bool], ...]


class FermionOperator:
    """Linear combination of ladder-operator products on ``n_modes`` modes."""

    __slots__ = ("n_modes", "_terms")

    def __init__(self, n_modes: int, terms: Mapping[FermionTerm, complex] | None = None):
        self.n_modes = int(n_modes)
        self._terms: dict[FermionTerm, complex] = {}
        if terms:
            for term, coeff in terms.items():
                if any(mode < 0 or mode >= n_modes for mode, _ in term):
                    raise ValueError(f"mode index out of range in term {term}")
                if coeff != 0.0:
                    self._terms[term] = complex(coeff)

    @classmethod
    def identity(cls, n_modes: int, coeff: complex = 1.0) -> "FermionOperator":
        return cls(n_modes, {(): coeff})

    def terms(self) -> dict[FermionTerm, complex]:
        return dict(self._terms)

    def items(self) -> Iterable[tuple[FermionTerm, complex]]:
        return self._terms.items()

    def __len__(self) -> int:
        return len(self._terms)

    def __add__(self, other: "FermionOperator") -> "FermionOperator":
        if self.n_modes != other.n_modes:
            raise ValueError("mode count mismatch")
        acc = dict(self._terms)
        for term, coeff in other._terms.items():
            acc[term] = acc.get(term, 0.0) + coeff
        return FermionOperator(self.n_modes, acc)

    def __sub__(self, other: "FermionOperator") -> "FermionOperator":
        return self + (-1.0) * other

    def __mul__(self, scalar: complex) -> "FermionOperator":
        return FermionOperator(self.n_modes, {t: c * scalar for t, c in self._terms.items()})

    __rmul__ = __mul__

    def hermitian_conjugate(self) -> "FermionOperator":
        acc: dict[FermionTerm, complex] = {}
        for term, coeff in self._terms.items():
            conj_term = tuple((mode, not creation) for mode, creation in reversed(term))
            acc[conj_term] = acc.get(conj_term, 0.0) + coeff.conjugate()
        return FermionOperator(self.n_modes, acc)

    def __repr__(self) -> str:
        return f"FermionOperator(n_modes={self.n_modes}, terms={len(self._terms)})"


def hamiltonian_columns(n_orbitals: int) -> list[tuple[float, tuple[FermionTerm, ...]]]:
    """The second-quantized Hamiltonian as one (weight, terms) column per
    integral, in the order of :func:`integral_vector`.

    Integral x_c of column c contributes weight * x_c to each of its
    terms: h_pq for every ordered (p, q) gives a+_{p,s} a_{q,s} over both
    spins s, and each canonical (pq|rs) class gives
    (1/2) a+_{w,s1} a+_{y,s2} a_{z,s2} a_{x,s1} for every distinct index
    order (wx|yz) of the class and every spin pair, on 2 * n_orbitals
    blocked spin orbitals.
    """
    n = n_orbitals
    columns: list[tuple[float, tuple[FermionTerm, ...]]] = []
    for p in range(n):
        for q in range(n):
            columns.append((1.0, tuple(((p + spin, True), (q + spin, False)) for spin in (0, n))))
    for p, q, r, s in canonical_classes(n):
        # expand the canonical class back to all distinct index orders
        orders: list[tuple[int, int, int, int]] = []
        for a, b in ((p, q), (q, p)):
            for c, d in ((r, s), (s, r)):
                for order in ((a, b, c, d), (c, d, a, b)):
                    if order not in orders:
                        orders.append(order)
        terms = tuple(
            ((w + spin1, True), (y + spin2, True), (z + spin2, False), (x + spin1, False))
            for w, x, y, z in orders
            for spin1 in (0, n)
            for spin2 in (0, n)
        )
        columns.append((0.5, terms))
    return columns


def integral_vector(active: ActiveHamiltonian) -> np.ndarray:
    """The integrals the columns of :func:`hamiltonian_columns` weight:
    h_pq row-major, then every canonical (pq|rs) class, 0 where unset."""
    one_body = np.asarray(active.one_body_eff).ravel()
    return np.concatenate((one_body, active.two_body.canonical_vector()))


def spin_orbital_hamiltonian(active: ActiveHamiltonian) -> FermionOperator:
    """Expand an active-space Hamiltonian into second quantization.

    Returns sum_pq h_pq a+_p a_q + (1/2) sum (pq|rs) a+_{p,s1} a+_{r,s2}
    a_{s,s2} a_{q,s1} over 2 * n_orbitals blocked spin orbitals: each
    nonzero integral weights the terms of its :func:`hamiltonian_columns`
    column.  The inactive energy offset is not included.
    """
    columns = hamiltonian_columns(active.n_orbitals)
    terms: dict[FermionTerm, complex] = {}
    for value, (weight, column) in zip(integral_vector(active), columns):
        if value == 0.0:
            continue
        for term in column:
            terms[term] = terms.get(term, 0.0) + weight * value
    return FermionOperator(2 * active.n_orbitals, terms)


def excitation_term(excitation: tuple[int, ...]) -> FermionTerm:
    """The ladder product T of an excitation, in spin-orbital indices:
    a+_a a_i for (i, a), a+_a a+_b a_j a_i for (i, j, a, b)."""
    if len(excitation) == 2:
        i, a = excitation
        return ((a, True), (i, False))
    if len(excitation) == 4:
        i, j, a, b = excitation
        return ((a, True), (b, True), (j, False), (i, False))
    raise ValueError(f"excitation must have 2 or 4 indices, got {excitation}")


def excitation_generator(excitation: tuple[int, ...], n_modes: int) -> FermionOperator:
    """Anti-Hermitian generator T - T^dagger of :func:`excitation_term`."""
    t = FermionOperator(n_modes, {excitation_term(excitation): 1.0})
    return t - t.hermitian_conjugate()
