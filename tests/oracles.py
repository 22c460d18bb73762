"""Independent brute-force oracles for the test suite.

Everything here recomputes quantities from first principles (dense kron
products, explicit ladder semantics, matrix exponentials) without using
the package's algebra, so agreement is meaningful.

Conventions match the package's declared contracts: qubit/mode k is bit
k (least significant) of a basis index; spin orbitals are blocked, all
alpha then all beta.
"""

from __future__ import annotations

from itertools import combinations

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


def reference_map_with_ladder(op, ladder):
    """Qubit image of a FermionOperator, adding each term's ladder product
    to a running PauliSum (which copies and re-prunes the whole sum)."""
    from qcembed.pauli import PauliSum

    n = op.n_modes
    result = PauliSum.zero(n)
    for term, coeff in op.items():
        product = PauliSum.identity(n, coeff)
        for mode, creation in term:
            product = product @ ladder(mode, n, creation)
        result = result + product
    return result


def reference_lift_reduced_parity_state(amplitudes: np.ndarray, n_spatial: int, n_alpha: int, n_beta: int):
    """Occupation-basis amplitudes behind a two-qubit-reduced parity state,
    one nonzero amplitude at a time."""
    n_modes = 2 * n_spatial
    bit_alpha = n_alpha % 2
    bit_total = (n_alpha + n_beta) % 2
    full_mask = (1 << n_modes) - 1
    amps = np.zeros(2**n_modes, dtype=np.complex128)
    for reduced_index, amplitude in enumerate(amplitudes):
        if amplitude == 0.0:
            continue
        low = reduced_index & ((1 << (n_spatial - 1)) - 1)
        high = reduced_index >> (n_spatial - 1)
        parity_index = low | (bit_alpha << (n_spatial - 1)) | (high << n_spatial)
        parity_index |= bit_total << (n_modes - 1)
        occupation = (parity_index ^ (parity_index << 1)) & full_mask
        amps[occupation] = amplitude
    return amps


# --- Slater-Condon determinant oracle ---------------------------------------
# Matrix elements one determinant pair at a time, over combined spin-orbital
# masks (alpha modes 0..n-1, beta modes n..2n-1), in the package's FCI basis:
# alpha-string major, beta-string minor, strings in ascending integer order.


def _strings(n_orbitals: int, n_occupied: int) -> list[int]:
    return sorted(sum(1 << k for k in occ) for occ in combinations(range(n_orbitals), n_occupied))


def _occupied_list(mask: int, n_modes: int) -> list[int]:
    return [k for k in range(n_modes) if (mask >> k) & 1]


def _excitation_sign(det: int, i: int, a: int) -> int:
    """Sign of moving an electron from occupied i to empty a in det."""
    low, high = (i, a) if i < a else (a, i)
    between = det & (((1 << high) - 1) & ~((1 << (low + 1)) - 1))
    return -1 if between.bit_count() % 2 else 1


class _DeterminantSpace:
    """Slater-Condon matrix elements over combined spin-orbital masks."""

    def __init__(self, active, n_alpha: int, n_beta: int):
        n = active.n_orbitals
        self.n_spatial = n
        self.n_modes = 2 * n
        self.alpha_strings = _strings(n, n_alpha)
        self.beta_strings = _strings(n, n_beta)
        self.dimension = len(self.alpha_strings) * len(self.beta_strings)

        h = np.asarray(active.one_body_eff)
        eri = active.two_body_dense()
        m = self.n_modes
        # spin-orbital one-body and antisymmetrized two-body <PQ||RS>
        self.h_so = np.zeros((m, m))
        self.h_so[:n, :n] = h
        self.h_so[n:, n:] = h
        spin_delta = np.zeros((m, m))
        spin_delta[:n, :n] = 1.0
        spin_delta[n:, n:] = 1.0
        spatial = np.tile(np.arange(n), 2)
        coulomb = eri[np.ix_(spatial, spatial, spatial, spatial)]
        # <PQ|RS> = (PR|QS) delta(sP,sR) delta(sQ,sS), chemists -> physicists
        phys = np.einsum("prqs,pr,qs->pqrs", coulomb, spin_delta, spin_delta, optimize=True)
        self.antisym = phys - np.transpose(phys, (0, 1, 3, 2))

    def diagonal(self, det: int) -> float:
        occ = _occupied_list(det, self.n_modes)
        value = sum(self.h_so[p, p] for p in occ)
        for a in range(len(occ)):
            for b in range(a + 1, len(occ)):
                value += self.antisym[occ[a], occ[b], occ[a], occ[b]]
        return float(value)

    def single(self, det: int, i: int, a: int) -> float:
        """<det| H |det with i -> a>, including the permutation sign."""
        value = self.h_so[i, a]
        rest = det & ~(1 << i)
        for j in _occupied_list(rest, self.n_modes):
            value += self.antisym[i, j, a, j]
        return _excitation_sign(det, i, a) * float(value)

    def double(self, det: int, i: int, j: int, a: int, b: int) -> float:
        """<det| H |det with (i, j) -> (a, b)>, i < j and a < b."""
        sign = _excitation_sign(det, i, a)
        intermediate = (det & ~(1 << i)) | (1 << a)
        sign *= _excitation_sign(intermediate, j, b)
        return sign * float(self.antisym[i, j, a, b])


def _connections(space: _DeterminantSpace):
    """Yield (row, col, value) over the lower triangle incl. diagonal."""
    n = space.n_spatial
    n_b = len(space.beta_strings)
    alpha_index = {m: i for i, m in enumerate(space.alpha_strings)}
    beta_index = {m: i for i, m in enumerate(space.beta_strings)}

    def substitutions(mask: int):
        occ = [k for k in range(n) if (mask >> k) & 1]
        virt = [k for k in range(n) if not (mask >> k) & 1]
        for i in occ:
            for a in virt:
                yield i, a, (mask & ~(1 << i)) | (1 << a)

    def double_substitutions(mask: int):
        occ = [k for k in range(n) if (mask >> k) & 1]
        virt = [k for k in range(n) if not (mask >> k) & 1]
        for i, j in combinations(occ, 2):
            for a, b in combinations(virt, 2):
                yield i, j, a, b, (mask & ~(1 << i) & ~(1 << j)) | (1 << a) | (1 << b)

    for ia, alpha in enumerate(space.alpha_strings):
        for ib, beta in enumerate(space.beta_strings):
            row = ia * n_b + ib
            det = alpha | (beta << n)
            yield row, row, space.diagonal(det)

            for i, a, new_alpha in substitutions(alpha):
                col = alpha_index[new_alpha] * n_b + ib
                if col < row:
                    yield row, col, space.single(det, i, a)
            for i, a, new_beta in substitutions(beta):
                col = ia * n_b + beta_index[new_beta]
                if col < row:
                    yield row, col, space.single(det, i + n, a + n)
            for i, j, a, b, new_alpha in double_substitutions(alpha):
                col = alpha_index[new_alpha] * n_b + ib
                if col < row:
                    yield row, col, space.double(det, i, j, a, b)
            for i, j, a, b, new_beta in double_substitutions(beta):
                col = ia * n_b + beta_index[new_beta]
                if col < row:
                    yield row, col, space.double(det, i + n, j + n, a + n, b + n)
            for i, a, new_alpha in substitutions(alpha):
                for j, b, new_beta in substitutions(beta):
                    col = alpha_index[new_alpha] * n_b + beta_index[new_beta]
                    if col < row:
                        yield row, col, space.double(det, i, j + n, a, b + n)


def reference_fci_matrix(active, n_alpha: int, n_beta: int) -> np.ndarray:
    """Dense FCI matrix of the (n_alpha, n_beta) sector, built one
    Slater-Condon element at a time and mirrored from its lower triangle."""
    space = _DeterminantSpace(active, n_alpha, n_beta)
    matrix = np.zeros((space.dimension, space.dimension))
    for row, col, value in _connections(space):
        matrix[row, col] = value
        matrix[col, row] = value
    return matrix


def reference_fci_one_rdm(n: int, n_alpha: int, n_beta: int, vector: np.ndarray) -> np.ndarray:
    """Spin-summed gamma_pq = <c| E_pq |c>, one determinant and one
    substitution at a time."""
    alpha_strings = _strings(n, n_alpha)
    beta_strings = _strings(n, n_beta)
    n_b = len(beta_strings)
    alpha_index = {m: i for i, m in enumerate(alpha_strings)}
    beta_index = {m: i for i, m in enumerate(beta_strings)}
    gamma = np.zeros((n, n))

    for ia, alpha in enumerate(alpha_strings):
        for ib, beta in enumerate(beta_strings):
            source = ia * n_b + ib
            weight = vector[source]
            if weight == 0.0:
                continue
            det = alpha | (beta << n)
            for p in range(n):
                if (alpha >> p) & 1:
                    gamma[p, p] += weight * weight
                if (beta >> p) & 1:
                    gamma[p, p] += weight * weight
            for q in range(n):
                if not (alpha >> q) & 1:
                    continue
                for p in range(n):
                    if p == q or (alpha >> p) & 1:
                        continue
                    new_alpha = (alpha & ~(1 << q)) | (1 << p)
                    target = alpha_index[new_alpha] * n_b + ib
                    sign = _excitation_sign(det, q, p)
                    gamma[p, q] += sign * vector[target] * weight
            for q in range(n):
                if not (beta >> q) & 1:
                    continue
                for p in range(n):
                    if p == q or (beta >> p) & 1:
                        continue
                    new_beta = (beta & ~(1 << q)) | (1 << p)
                    target = ia * n_b + beta_index[new_beta]
                    sign = _excitation_sign(det, q + n, p + n)
                    gamma[p, q] += sign * vector[target] * weight
    return gamma
