"""Exact statevector simulation and the trotterized UCCSD ansatz.

Bit-endianness convention (used everywhere in this package): qubit k is
the least significant bit k of the amplitude index, so basis state
|q_{n-1} ... q_1 q_0> sits at index sum_k q_k 2^k.

Pauli strings act through bitmask traversal: for masks (x, z),

    P |b> = i^{|x & z|} (-1)^{|z & b|} |b ^ x>

which costs O(2^n) per term and never materializes a matrix.

Kernels are compiled once per string and kept by the object that owns
the string.  A compiled string is a pair (factors, perm): ``factors[b]``
is i^{|x & z|} (-1)^{|z & b|} and ``perm[b]`` is b ^ x (None when x = 0),
so P acting on amplitudes is the gather ``(factors * amps)[perm]``; the
permutation is an involution, so the gather equals the scatter
``out[b ^ x] = factors[b] * amps[b]``.  A :class:`UccsdAnsatz` compiles
its generator terms, in sorted term order, when it is constructed; a
:class:`PauliSum` compiles its terms, in iteration order, the first time
:func:`expectation` reads it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .activespace import ActiveHamiltonian
from .fermion import excitation_generator, spin_orbital_hamiltonian
from .mappings import (
    ReductionError,
    drop_qubit_positions,
    map_jordan_wigner,
    map_parity,
    occupation_to_parity_bits,
    two_qubit_reduction,
)
from .pauli import PauliSum, PauliString, parity_of_masked_bits

__all__ = [
    "SimulationError",
    "Statevector",
    "hf_state",
    "apply_pauli",
    "apply_pauli_exponential",
    "expectation",
    "uccsd_excitations",
    "UccsdAnsatz",
    "build_uccsd_ansatz",
    "map_active_hamiltonian",
    "evolve_ansatz",
    "lift_reduced_parity_state",
    "spin_summed_one_rdm",
]

_IMAG_TOLERANCE = 1e-10


class SimulationError(ValueError):
    """Contract violation in a simulator primitive."""


@dataclass(frozen=True)
class Statevector:
    """Dense complex amplitudes over 2^n_qubits basis states."""

    n_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=np.complex128)
        if amps.shape != (2**self.n_qubits,):
            raise SimulationError(
                f"amplitude vector of length {amps.shape} does not match {self.n_qubits} qubits"
            )
        object.__setattr__(self, "amplitudes", amps)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


def _occupation_mask(bits: str | int, n_qubits: int) -> int:
    if isinstance(bits, str):
        if len(bits) != n_qubits:
            raise SimulationError(f"bitstring {bits!r} does not have {n_qubits} bits")
        mask = 0
        for k, ch in enumerate(bits):  # character k = qubit k
            if ch == "1":
                mask |= 1 << k
            elif ch != "0":
                raise SimulationError(f"invalid bit {ch!r} in {bits!r}")
        return mask
    mask = int(bits)
    if mask < 0 or mask >= (1 << n_qubits):
        raise SimulationError(f"basis index {mask} out of range for {n_qubits} qubits")
    return mask


def hf_state(n_qubits: int, occupation_bits: str | int) -> Statevector:
    """Computational-basis state with amplitude 1 on the given bitstring.

    A string argument is read with character k as qubit k; an integer is
    taken as the basis index directly.
    """
    index = _occupation_mask(occupation_bits, n_qubits)
    amps = np.zeros(2**n_qubits, dtype=np.complex128)
    amps[index] = 1.0
    return Statevector(n_qubits, amps)


# (factors, perm): P @ amps == (factors * amps)[perm], perm None when x = 0
_Kernel = tuple[np.ndarray, "np.ndarray | None"]


def _compile_pauli(pauli: PauliString) -> _Kernel:
    indices = np.arange(2**pauli.n_qubits, dtype=np.uint64)
    signs = 1.0 - 2.0 * parity_of_masked_bits(indices, pauli.z_mask).astype(np.float64)
    phase = 1j ** ((pauli.x_mask & pauli.z_mask).bit_count() % 4)
    factors = phase * signs
    if pauli.x_mask == 0:
        return factors, None
    return factors, (indices ^ np.uint64(pauli.x_mask)).astype(np.intp)


def _pauli_action(amps: np.ndarray, kernel: _Kernel) -> np.ndarray:
    factors, perm = kernel
    values = factors * amps
    return values if perm is None else values[perm]


def _rotate(amps: np.ndarray, kernel: _Kernel, angle: float) -> np.ndarray:
    """exp(i * angle * P) applied to raw amplitudes."""
    if angle == 0.0:
        return amps
    return np.cos(angle) * amps + 1j * np.sin(angle) * _pauli_action(amps, kernel)


def _compiled_terms(op: PauliSum) -> tuple[tuple[complex, _Kernel], ...]:
    """(coefficient, kernel) per term of ``op`` in iteration order,
    compiled on first use and kept on ``op``."""
    if op._kernels is None:
        op._kernels = tuple((coeff, _compile_pauli(string)) for string, coeff in op)
    return op._kernels


def apply_pauli(state: Statevector, pauli: PauliString) -> Statevector:
    if pauli.n_qubits != state.n_qubits:
        raise SimulationError("qubit count mismatch")
    return Statevector(state.n_qubits, _pauli_action(state.amplitudes, _compile_pauli(pauli)))


def apply_pauli_exponential(state: Statevector, pauli: PauliString, angle: float) -> Statevector:
    """exp(i * angle * P) |state>, exact and norm-preserving."""
    if pauli.n_qubits != state.n_qubits:
        raise SimulationError("qubit count mismatch")
    return Statevector(state.n_qubits, _rotate(state.amplitudes, _compile_pauli(pauli), angle))


def expectation(state: Statevector, op: PauliSum) -> float:
    """<state| op |state> for a Hermitian op; the imaginary residue must
    stay below 1e-10 and is discarded."""
    if op.n_qubits != state.n_qubits:
        raise SimulationError("qubit count mismatch")
    amps = state.amplitudes
    value = 0.0 + 0.0j
    for coeff, kernel in _compiled_terms(op):
        value += coeff * np.vdot(amps, _pauli_action(amps, kernel))
    if abs(value.imag) > _IMAG_TOLERANCE:
        raise SimulationError(
            f"expectation has imaginary residue {value.imag:.3e}; operator is not Hermitian"
        )
    return float(value.real)


# -- UCCSD ansatz ------------------------------------------------------------


def uccsd_excitations(
    n_spatial: int, n_alpha: int, n_beta: int
) -> list[tuple[int, ...]]:
    """Enumerate spin- and particle-conserving singles and doubles.

    Spin orbitals are blocked (alpha 0..M-1, beta M..2M-1) with the
    lowest orbitals of each block occupied.  Ordering is deterministic:
    singles sorted by (occupied, virtual), then doubles sorted by
    (occ pair, virt pair); each tuple is (i, a) or (i, j, a, b).
    """
    m = n_spatial
    occ_a = list(range(n_alpha))
    virt_a = list(range(n_alpha, m))
    occ_b = list(range(m, m + n_beta))
    virt_b = list(range(m + n_beta, 2 * m))

    singles = [(i, a) for i in occ_a for a in virt_a]
    singles += [(i, a) for i in occ_b for a in virt_b]
    singles.sort()

    doubles = []
    for i, j in combinations(occ_a, 2):
        for a, b in combinations(virt_a, 2):
            doubles.append((i, j, a, b))
    for i, j in combinations(occ_b, 2):
        for a, b in combinations(virt_b, 2):
            doubles.append((i, j, a, b))
    for i in occ_a:
        for j in occ_b:
            for a in virt_a:
                for b in virt_b:
                    doubles.append((i, j, a, b))
    doubles.sort()
    return singles + doubles


@dataclass(frozen=True)
class UccsdAnsatz:
    """Single-Trotter-step UCCSD ansatz, generators pre-mapped to Pauli sums.

    ``generators[k]`` is the qubit image of T_k - T_k^dagger (coefficients
    purely imaginary); evolution applies exp(theta_k G_k) once each, in
    enumeration order, starting from the mapped Hartree-Fock reference.
    Construction checks that every generator is anti-Hermitian and
    compiles its terms, in sorted term order, as (Im c, kernel) pairs.
    """

    n_spatial: int
    n_alpha: int
    n_beta: int
    n_qubits: int
    reference_index: int
    excitations: tuple[tuple[int, ...], ...]
    generators: tuple[PauliSum, ...]
    mapping: str
    two_qubit_reduced: bool
    _kernels: tuple[tuple[tuple[float, _Kernel], ...], ...] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self):
        kernels = []
        for generator in self.generators:
            terms = []
            for string, coeff in generator.sorted_terms():
                if abs(coeff.real) > _IMAG_TOLERANCE:
                    raise SimulationError("excitation generator is not anti-Hermitian")
                terms.append((coeff.imag, _compile_pauli(string)))
            kernels.append(tuple(terms))
        object.__setattr__(self, "_kernels", tuple(kernels))

    @property
    def n_parameters(self) -> int:
        return len(self.excitations)


def _map_operator(
    op, mapping: str, two_qubit_reduced: bool, n_electrons: int, n_alpha: int
) -> PauliSum:
    if mapping == "parity":
        mapped = map_parity(op)
        if two_qubit_reduced:
            mapped = two_qubit_reduction(mapped, n_electrons, n_alpha)
        return mapped
    if mapping == "jordan-wigner":
        if two_qubit_reduced:
            raise ReductionError("two-qubit reduction requires the parity mapping")
        return map_jordan_wigner(op)
    raise ValueError(f"unknown mapping {mapping!r}")


def build_uccsd_ansatz(
    n_spatial: int,
    n_electrons: int,
    spin_2ms: int = 0,
    mapping: str = "parity",
    two_qubit_reduced: bool = True,
) -> UccsdAnsatz:
    """Construct the UCCSD ansatz for an active space.

    With zero virtual orbitals the ansatz is valid and has 0 parameters.
    """
    if (n_electrons + spin_2ms) % 2 != 0:
        raise SimulationError(f"inconsistent (n_electrons={n_electrons}, MS2={spin_2ms})")
    n_alpha = (n_electrons + spin_2ms) // 2
    n_beta = n_electrons - n_alpha
    if not (0 <= n_alpha <= n_spatial and 0 <= n_beta <= n_spatial):
        raise SimulationError(
            f"cannot place ({n_alpha} alpha, {n_beta} beta) electrons in {n_spatial} orbitals"
        )

    n_modes = 2 * n_spatial
    excitations = uccsd_excitations(n_spatial, n_alpha, n_beta)
    generators = tuple(
        _map_operator(
            excitation_generator(exc, n_modes), mapping, two_qubit_reduced, n_electrons, n_alpha
        )
        for exc in excitations
    )

    occupation = 0
    for k in range(n_alpha):
        occupation |= 1 << k
    for k in range(n_beta):
        occupation |= 1 << (n_spatial + k)
    if mapping == "parity":
        reference = occupation_to_parity_bits(occupation, n_modes)
        n_qubits = n_modes
        if two_qubit_reduced:
            reference = drop_qubit_positions(reference, [n_spatial - 1, n_modes - 1])
            n_qubits = n_modes - 2
    else:
        reference = occupation
        n_qubits = n_modes

    return UccsdAnsatz(
        n_spatial=n_spatial,
        n_alpha=n_alpha,
        n_beta=n_beta,
        n_qubits=n_qubits,
        reference_index=reference,
        excitations=tuple(excitations),
        generators=generators,
        mapping=mapping,
        two_qubit_reduced=two_qubit_reduced,
    )


def map_active_hamiltonian(
    active: ActiveHamiltonian,
    spin_2ms: int = 0,
    mapping: str = "parity",
    two_qubit_reduced: bool = True,
) -> PauliSum:
    """Qubit image of the active electronic Hamiltonian (no inactive offset)."""
    op = spin_orbital_hamiltonian(active)
    n_alpha = (active.n_electrons + spin_2ms) // 2
    mapped = _map_operator(op, mapping, two_qubit_reduced, active.n_electrons, n_alpha)
    return mapped.real_coefficients(_IMAG_TOLERANCE)


def evolve_ansatz(ansatz: UccsdAnsatz, parameters: np.ndarray) -> Statevector:
    """Apply the single-Trotter-step UCCSD circuit to the reference state.

    Each generator factor exp(theta_k G_k) splits exactly into
    commuting Pauli exponentials exp(i theta_k c P), c real, applied in
    sorted term order.
    """
    parameters = np.asarray(parameters, dtype=float)
    if parameters.shape != (ansatz.n_parameters,):
        raise SimulationError(
            f"expected {ansatz.n_parameters} parameters, got shape {parameters.shape}"
        )
    amps = hf_state(ansatz.n_qubits, ansatz.reference_index).amplitudes
    for theta, terms in zip(parameters, ansatz._kernels):
        if theta == 0.0:
            continue
        for coeff, kernel in terms:
            amps = _rotate(amps, kernel, theta * coeff)
    return Statevector(ansatz.n_qubits, amps)


# -- density feedback --------------------------------------------------------


def lift_reduced_parity_state(
    state: Statevector, n_spatial: int, n_alpha: int, n_beta: int
) -> Statevector:
    """Reconstruct the occupation-basis state behind a two-qubit-reduced
    parity-basis state.

    The removed qubits carry fixed parities in a particle-number sector:
    bit M-1 is n_alpha mod 2 and bit 2M-1 is (n_alpha + n_beta) mod 2.
    After reinserting them, the parity basis maps back to the occupation
    basis through n_k = p_k xor p_{k-1}.
    """
    n_modes = 2 * n_spatial
    if state.n_qubits != n_modes - 2:
        raise SimulationError(
            f"expected a reduced register of {n_modes - 2} qubits, got {state.n_qubits}"
        )
    bit_alpha = n_alpha % 2
    bit_total = (n_alpha + n_beta) % 2

    full_mask = (1 << n_modes) - 1
    amps = np.zeros(2**n_modes, dtype=np.complex128)
    for reduced_index, amplitude in enumerate(state.amplitudes):
        if amplitude == 0.0:
            continue
        low = reduced_index & ((1 << (n_spatial - 1)) - 1)
        high = reduced_index >> (n_spatial - 1)
        parity_index = low | (bit_alpha << (n_spatial - 1)) | (high << n_spatial)
        parity_index |= bit_total << (n_modes - 1)
        # invert the cumulative parity: n_k = p_k xor p_{k-1}
        occupation = (parity_index ^ (parity_index << 1)) & full_mask
        amps[occupation] = amplitude
    return Statevector(n_modes, amps)


def spin_summed_one_rdm(state: Statevector, n_spatial: int) -> np.ndarray:
    """gamma_pq = <a+_p,sigma a_q,sigma> summed over spin, from an
    occupation-basis statevector on 2 * n_spatial blocked modes."""
    n_modes = 2 * n_spatial
    if state.n_qubits != n_modes:
        raise SimulationError("state does not match 2 * n_spatial modes")
    amps = state.amplitudes
    indices = np.arange(len(amps), dtype=np.uint64)
    gamma = np.zeros((n_spatial, n_spatial))
    for spin in (0, n_spatial):
        for p in range(n_spatial):
            mp = p + spin
            for q in range(n_spatial):
                mq = q + spin
                if mp == mq:
                    occupied = (indices >> np.uint64(mq)) & np.uint64(1)
                    gamma[p, q] += float(
                        np.real(np.sum(occupied * np.abs(amps) ** 2))
                    )
                    continue
                # a_q then a+_p: q must be occupied, p empty after removal
                occ_q = ((indices >> np.uint64(mq)) & np.uint64(1)).astype(bool)
                occ_p = ((indices >> np.uint64(mp)) & np.uint64(1)).astype(bool)
                valid = occ_q & ~occ_p
                if not np.any(valid):
                    continue
                source = indices[valid]
                intermediate = source ^ np.uint64(1 << mq)
                target = intermediate ^ np.uint64(1 << mp)
                sign_q = 1.0 - 2.0 * parity_of_masked_bits(source, (1 << mq) - 1).astype(float)
                sign_p = 1.0 - 2.0 * parity_of_masked_bits(intermediate, (1 << mp) - 1).astype(
                    float
                )
                contribution = np.conj(amps[target]) * sign_q * sign_p * amps[source]
                gamma[p, q] += float(np.real(np.sum(contribution)))
    return gamma
