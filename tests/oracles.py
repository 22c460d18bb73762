"""Independent brute-force oracles for the test suite.

Everything here recomputes quantities from first principles (dense kron
products, explicit ladder semantics, matrix exponentials) without using
the package's algebra, so agreement is meaningful.

Conventions match the package's declared contracts: qubit/mode k is bit
k (least significant) of a basis index; spin orbitals are blocked, all
alpha then all beta.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

_SINGLE = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def pauli_label_matrix(label: str) -> np.ndarray:
    """Dense matrix of a Pauli label; character k acts on qubit k (bit k)."""
    matrix = np.array([[1.0 + 0.0j]])
    for ch in label:  # qubit 0 first -> it must be the *innermost* kron factor
        matrix = np.kron(_SINGLE[ch], matrix)
    return matrix


def pauli_sum_matrix(op) -> np.ndarray:
    dim = 2**op.n_qubits
    matrix = np.zeros((dim, dim), dtype=complex)
    for string, coeff in op:
        matrix += coeff * pauli_label_matrix(string.label)
    return matrix


def annihilation_matrix(n_modes: int, mode: int) -> np.ndarray:
    """Dense Fock-space a_mode with sign (-1)^(number of occupied modes below)."""
    dim = 2**n_modes
    matrix = np.zeros((dim, dim))
    for state in range(dim):
        if not (state >> mode) & 1:
            continue
        below = state & ((1 << mode) - 1)
        sign = -1.0 if bin(below).count("1") % 2 else 1.0
        matrix[state ^ (1 << mode), state] = sign
    return matrix


def fermion_operator_matrix(op) -> np.ndarray:
    """Dense Fock-space matrix of a FermionOperator (ladder products applied
    right to left)."""
    n = op.n_modes
    dim = 2**n
    ladders = {}
    total = np.zeros((dim, dim), dtype=complex)
    for term, coeff in op.items():
        matrix = np.eye(dim, dtype=complex)
        for mode, creation in reversed(term):
            key = (mode, creation)
            if key not in ladders:
                a = annihilation_matrix(n, mode)
                ladders[key] = a.T if creation else a
            matrix = ladders[key] @ matrix
        total += coeff * matrix
    return total


def sector_indices(n_modes: int, n_spatial: int, n_alpha: int, n_beta: int) -> np.ndarray:
    """Fock-space indices with the requested per-spin particle numbers."""
    alpha_mask = (1 << n_spatial) - 1
    indices = []
    for state in range(2**n_modes):
        if bin(state & alpha_mask).count("1") != n_alpha:
            continue
        if bin(state >> n_spatial).count("1") != n_beta:
            continue
        indices.append(state)
    return np.array(indices, dtype=int)


def brute_force_ground_energy(active, n_alpha: int, n_beta: int):
    """Ground energy (excluding any scalar offset) of an ActiveHamiltonian by
    dense diagonalization of the Fock-space fermion matrix restricted to the
    (n_alpha, n_beta) sector.  Only sensible for <= ~6 spatial orbitals."""
    from qcembed.fermion import spin_orbital_hamiltonian

    op = spin_orbital_hamiltonian(active)
    matrix = fermion_operator_matrix(op)
    idx = sector_indices(op.n_modes, active.n_orbitals, n_alpha, n_beta)
    block = matrix[np.ix_(idx, idx)]
    assert np.allclose(block, block.conj().T, atol=1e-10)
    values, vectors = np.linalg.eigh(block)
    return float(values[0]), vectors[:, 0], idx


def brute_force_spectrum(active, n_alpha: int, n_beta: int) -> np.ndarray:
    from qcembed.fermion import spin_orbital_hamiltonian

    op = spin_orbital_hamiltonian(active)
    matrix = fermion_operator_matrix(op)
    idx = sector_indices(op.n_modes, active.n_orbitals, n_alpha, n_beta)
    block = matrix[np.ix_(idx, idx)]
    return np.linalg.eigvalsh(block)


def brute_force_one_rdm(vector: np.ndarray, fock_indices: np.ndarray, n_spatial: int) -> np.ndarray:
    """Spin-summed 1-RDM from a sector eigenvector via dense ladder matrices."""
    n_modes = 2 * n_spatial
    dim = 2**n_modes
    full = np.zeros(dim, dtype=complex)
    full[fock_indices] = vector
    gamma = np.zeros((n_spatial, n_spatial))
    for p in range(n_spatial):
        for q in range(n_spatial):
            value = 0.0
            for spin in (0, n_spatial):
                a_q = annihilation_matrix(n_modes, q + spin)
                a_p_dag = annihilation_matrix(n_modes, p + spin).T
                value += np.real(np.vdot(full, a_p_dag @ a_q @ full))
            gamma[p, q] = value
    return gamma


def pauli_exponential_matrix(label: str, angle: float) -> np.ndarray:
    """Dense matrix exponential exp(i * angle * P)."""
    return scipy.linalg.expm(1j * angle * pauli_label_matrix(label))


def random_hermitian_fermion_operator(rng: np.random.Generator, n_modes: int, n_terms: int = 6):
    """Random Hermitian combination of one- and two-mode ladder products."""
    from qcembed.fermion import FermionOperator

    terms = {}
    for _ in range(n_terms):
        kind = rng.integers(0, 2)
        if kind == 0:
            p, q = rng.integers(0, n_modes, size=2)
            term = ((int(p), True), (int(q), False))
            conj = ((int(q), True), (int(p), False))
        else:
            p, q, r, s = rng.integers(0, n_modes, size=4)
            term = ((int(p), True), (int(q), True), (int(r), False), (int(s), False))
            conj = ((int(s), True), (int(r), True), (int(q), False), (int(p), False))
        coeff = complex(rng.normal(), rng.normal())
        terms[term] = terms.get(term, 0.0) + coeff
        terms[conj] = terms.get(conj, 0.0) + coeff.conjugate()
    op = FermionOperator(n_modes, terms)
    matrix = fermion_operator_matrix(op)
    assert np.allclose(matrix, matrix.conj().T, atol=1e-10)
    return op


def random_active_hamiltonian(rng: np.random.Generator, n_orbitals: int, scale: float = 1.0):
    """Random symmetric one-body + 8-fold-symmetric two-body active Hamiltonian."""
    from qcembed.activespace import ActiveHamiltonian
    from qcembed.integrals import SymmetricTwoBody

    h = rng.normal(scale=scale, size=(n_orbitals, n_orbitals))
    h = 0.5 * (h + h.T)
    two = SymmetricTwoBody(n_orbitals)
    for p in range(n_orbitals):
        for q in range(p + 1):
            for r in range(p + 1):
                s_top = q if r == p else r
                for s in range(s_top + 1):
                    two.set(p, q, r, s, float(rng.normal(scale=scale * 0.3)))
    return ActiveHamiltonian(
        n_orbitals=n_orbitals,
        n_electrons=2,
        inactive_energy=0.0,
        one_body_eff=h,
        two_body=two,
    )


def hartree_fock_determinant_energy(active, n_occ_active: int) -> float:
    """Closed-shell determinant energy of an active Hamiltonian:
    2 sum_a h_aa + sum_ab [2(aa|bb) - (ab|ba)] over occupied actives."""
    h = active.one_body_eff
    occupied = range(n_occ_active)
    energy = 2.0 * sum(h[a, a] for a in occupied)
    for a in occupied:
        for b in occupied:
            energy += 2.0 * active.two_body.get(a, a, b, b) - active.two_body.get(a, b, b, a)
    return float(energy)


def reference_pauli_action(amps: np.ndarray, pauli) -> np.ndarray:
    """P @ amps by bitmask scatter, recomputing the sign vector each call:
    out[b ^ x] = i^{|x & z|} (-1)^{|z & b|} amps[b]."""
    indices = np.arange(len(amps), dtype=np.uint64)
    parity = np.bitwise_count(np.bitwise_and(indices, pauli.z_mask)) & 1
    signs = 1.0 - 2.0 * parity.astype(np.float64)
    phase = 1j ** ((pauli.x_mask & pauli.z_mask).bit_count() % 4)
    values = phase * signs * amps
    if pauli.x_mask == 0:
        return values
    out = np.empty_like(amps)
    out[indices ^ np.uint64(pauli.x_mask)] = values
    return out


def reference_pauli_exponential(amps: np.ndarray, pauli, angle: float) -> np.ndarray:
    """exp(i * angle * P) @ amps through :func:`reference_pauli_action`."""
    if angle == 0.0:
        return amps
    return np.cos(angle) * amps + 1j * np.sin(angle) * reference_pauli_action(amps, pauli)


def reference_evolve(ansatz, parameters: np.ndarray) -> np.ndarray:
    """UCCSD amplitudes one Pauli exponential at a time, each generator's
    terms re-sorted and re-checked on every call."""
    amps = np.zeros(2**ansatz.n_qubits, dtype=np.complex128)
    amps[ansatz.reference_index] = 1.0
    for theta, generator in zip(np.asarray(parameters, dtype=float), ansatz.generators):
        if theta == 0.0:
            continue
        for string, coeff in generator.sorted_terms():
            assert abs(coeff.real) <= 1e-10
            amps = reference_pauli_exponential(amps, string, theta * coeff.imag)
    return amps


def reference_expectation(amps: np.ndarray, op) -> complex:
    """<amps| op |amps> accumulated term by term in iteration order."""
    value = 0.0 + 0.0j
    for string, coeff in op:
        value += coeff * np.vdot(amps, reference_pauli_action(amps, string))
    return value
