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


def parity_of_masked_bits(values: np.ndarray, mask: int) -> np.ndarray:
    """Vectorized parity of ``values & mask``, as 0/1 uint8 array."""
    masked = np.bitwise_and(values, mask)
    return (np.bitwise_count(masked) & 1).astype(np.uint8)


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


def reference_two_body_dense(two_body) -> np.ndarray:
    """The n^4 (pq|rs) tensor of a ``SymmetricTwoBody``, writing each
    canonical value into its 8 index permutations one at a time."""
    n = two_body.n_orbitals
    out = np.zeros((n, n, n, n))
    for (p, q, r, s), value in two_body.items_canonical():
        for a, b in ((p, q), (q, p)):
            for c, d in ((r, s), (s, r)):
                out[a, b, c, d] = value
                out[c, d, a, b] = value
    return out


def reference_from_dense(tensor: np.ndarray):
    """``SymmetricTwoBody.from_dense`` as one ``set`` per canonical
    (p, q, r, s) element of ``tensor``; the other seven permutations are
    never read."""
    from qcembed.integrals import SymmetricTwoBody

    n = tensor.shape[0]
    obj = SymmetricTwoBody(n)
    for p in range(n):
        for q in range(p + 1):
            for r in range(p + 1):
                s_max = q if r == p else r
                for s in range(s_max + 1):
                    obj.set(p, q, r, s, float(tensor[p, q, r, s]))
    return obj


def reference_set_many(two_body, indices, values) -> None:
    """``SymmetricTwoBody.set_many`` with a dict that keeps the last row
    of each class, each class then written once."""
    from qcembed.integrals import _pair_indices

    indices = np.asarray(indices, dtype=np.intp).reshape(-1, 4)
    outside = np.any((indices < 0) | (indices >= two_body.n_orbitals), axis=1)
    if outside.any():
        raise IndexError(
            f"orbital index out of range for n_orbitals={two_body.n_orbitals}: "
            f"{tuple(indices[outside][0].tolist())}"
        )
    p, q, r, s = indices.T
    classes = _pair_indices(_pair_indices(p, q), _pair_indices(r, s))
    last = dict(zip(classes.tolist(), range(len(classes))))
    two_body._values[list(last)] = np.asarray(values, dtype=float)[list(last.values())] + 0.0


def reference_parse_fcidump(text: str):
    """``integrals.parse_fcidump`` one record at a time: each data line is
    split, converted and checked in turn, one-body elements are written as
    they come and two-body records go through :func:`reference_set_many`."""
    import math

    from qcembed.integrals import _HEADER_KEY, FcidumpError, IntegralSet, SymmetricTwoBody

    lines = text.splitlines()

    header_parts: list[str] = []
    data_start = None
    for lineno, raw in enumerate(lines, start=1):
        stripped = raw.strip()
        upper = stripped.upper()
        terminator = None
        for token in ("&END", "/END", "/"):
            pos = upper.find(token)
            if pos >= 0:
                terminator = (pos, token)
                break
        if terminator is not None:
            header_parts.append(stripped[: terminator[0]])
            data_start = lineno
            break
        header_parts.append(stripped)
    if data_start is None:
        raise FcidumpError("missing namelist terminator (&END or /)", len(lines) or 1)

    keys = {k.upper(): v for k, v in _HEADER_KEY.findall(" ".join(header_parts))}

    def header_int(name: str, required: bool, default: int = 0) -> int:
        if name not in keys:
            if required:
                raise FcidumpError(f"header is missing {name}", 1)
            return default
        try:
            return int(keys[name])
        except ValueError:
            raise FcidumpError(f"header {name}={keys[name]!r} is not an integer", 1) from None

    n_orbitals = header_int("NORB", required=True)
    n_electrons = header_int("NELEC", required=True)
    spin_2ms = header_int("MS2", required=False)
    if n_orbitals < 1:
        raise FcidumpError(f"NORB must be positive, got {n_orbitals}", 1)

    one_body = np.zeros((n_orbitals, n_orbitals))
    two_body_indices: list[tuple[int, int, int, int]] = []
    two_body_values: list[float] = []
    core_energy = 0.0

    for lineno in range(data_start + 1, len(lines) + 1):
        stripped = lines[lineno - 1].strip()
        if not stripped or stripped.startswith("!") or stripped.startswith("#"):
            continue
        fields = stripped.replace(",", " ").split()
        if len(fields) != 5:
            raise FcidumpError(f"expected 'value i j k l', got {stripped!r}", lineno)
        try:
            value = float(fields[0].replace("D", "E").replace("d", "e"))
        except ValueError:
            raise FcidumpError(f"non-numeric value field {fields[0]!r}", lineno) from None
        try:
            i, j, k, l = (int(f) for f in fields[1:])
        except ValueError:
            raise FcidumpError(f"non-integer index in {stripped!r}", lineno) from None
        for idx in (i, j, k, l):
            if idx < 0 or idx > n_orbitals:
                raise FcidumpError(f"index {idx} outside [0, NORB={n_orbitals}]", lineno)

        if j == k == l == 0 and i > 0:
            continue  # orbital-energy record
        if not math.isfinite(value):
            raise FcidumpError(f"non-finite value {fields[0]!r}", lineno)
        if i == j == k == l == 0:
            core_energy = value
        elif k == l == 0 and i > 0 and j > 0:
            one_body[i - 1, j - 1] = value
            one_body[j - 1, i - 1] = value
        elif min(i, j, k, l) > 0:
            two_body_indices.append((i, j, k, l))
            two_body_values.append(value)
        else:
            raise FcidumpError(f"unrecognized index pattern {(i, j, k, l)}", lineno)

    two_body = SymmetricTwoBody(n_orbitals)
    reference_set_many(two_body, np.array(two_body_indices, dtype=np.intp).reshape(-1, 4) - 1, two_body_values)
    return IntegralSet(n_orbitals, n_electrons, spin_2ms, core_energy, one_body, two_body)


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


def reference_grouped_operator(op):
    """The X-mask table of ``op`` built one term at a time: each term's
    sign vector over every basis index is added to a running sum per
    X-mask, and each sum is read at the gathered indices at the end."""
    indices = np.arange(2**op.n_qubits, dtype=np.uint64)
    groups = {}
    for string, coeff in op:
        signs = 1.0 - 2.0 * parity_of_masked_bits(indices, string.z_mask).astype(np.float64)
        factors = 1j ** ((string.x_mask & string.z_mask).bit_count() % 4) * signs
        groups[string.x_mask] = groups.get(string.x_mask, 0.0) + coeff * factors
    x_masks = np.fromiter(groups, dtype=np.intp, count=len(groups))
    gathers = indices.astype(np.intp)[None, :] ^ x_masks[:, None]
    diagonals = np.empty(gathers.shape, dtype=np.complex128)
    for row, diagonal in enumerate(groups.values()):
        diagonals[row] = diagonal[gathers[row]]
    return diagonals, gathers


def reference_reachable_rotations(generators, reference_index: int):
    """(connected, source, factors) of each generator's compile, kept at
    the entries that touch an amplitude reachable from the reference,
    and the set of reached basis states: grown by each rotation's kept
    ``connected`` entries, it decides the entries of the next one."""
    from qcembed.sim import _compile_generator

    reached = {reference_index}
    rotations = []
    for generator in generators:
        connected, source, factors = _compile_generator(generator)
        kept = [b in reached or a in reached for b, a in zip(connected.tolist(), source.tolist())]
        rotations.append((connected[kept], source[kept], factors[kept]))
        reached.update(connected[kept].tolist())
    return rotations, reached


def reference_evolve_rows(ansatz, thetas: np.ndarray, dtype=np.complex128) -> np.ndarray:
    """``sim._evolve_rows`` with each rotation written as one expression
    that allocates a new array per operation, on amplitudes of ``dtype``:
    complex128 by default, as every statevector of the package was before
    the row kernels ran on real amplitudes.  Every input, one row
    included, is one (2^n, R) block with a column per row: each value is
    an elementwise product or sum, the same in any layout.  Each rotation
    runs on the entries :func:`reference_reachable_rotations` keeps."""
    thetas = np.atleast_2d(thetas)
    amps = np.zeros((2**ansatz.n_qubits, len(thetas)), dtype=dtype)
    amps[ansatz.reference_index] = 1.0
    rotations, _ = reference_reachable_rotations(ansatz.generators, ansatz.reference_index)
    for (connected, source, factors), c, s in zip(rotations, np.cos(thetas).T, np.sin(thetas).T):
        amps[connected] = c * amps[connected] + s * (factors[:, None] * amps[source])
    return amps.T


def full_register_evolve_rows(ansatz, thetas: np.ndarray) -> np.ndarray:
    """The row kernel as it was before the support: every generator
    rotates every amplitude it connects, reachable or not, in float64."""
    from qcembed.sim import _columns, _compile_generator

    cos, sin = _columns(np.cos(thetas)), _columns(np.sin(thetas))
    amps = np.zeros((2**ansatz.n_qubits,) + cos.shape[1:])
    amps[ansatz.reference_index] = 1.0
    per_state = (slice(None),) + (None,) * (amps.ndim - 1)
    for generator, c, s in zip(ansatz.generators, cos, sin):
        connected, source, factors = _compile_generator(generator)
        rotated = amps[source]
        rotated *= factors[per_state]
        rotated *= s
        kept = amps[connected]
        kept *= c
        kept += rotated
        amps[connected] = kept
    return np.atleast_2d(amps.T)


def full_register_expectation_rows(amps: np.ndarray, op) -> np.ndarray:
    """The energy kernel as it was before the support: op applied on
    every basis index by its full table, then one ``np.vdot`` per row of
    complex128 copies."""
    from qcembed.sim import _apply_operator, _columns, _grouped_operator

    applied = np.atleast_2d(_apply_operator(_columns(amps), _grouped_operator(op)).T)
    rows = np.ascontiguousarray(amps, dtype=np.complex128)
    applied = np.ascontiguousarray(applied, dtype=np.complex128)
    return np.array([np.vdot(row, out) for row, out in zip(rows, applied)], dtype=np.complex128).real


def reference_grouped_expectation(amps: np.ndarray, op) -> float:
    """<amps| op |amps> from the package's X-mask table, with op |amps>
    accumulated from zero one group at a time."""
    from qcembed.sim import _grouped_operator

    diagonals, gathers = _grouped_operator(op)
    applied = np.zeros(amps.shape, dtype=np.complex128)
    for diagonal, gather in zip(diagonals, gathers):
        applied += diagonal * amps[gather]
    return float(np.vdot(amps, applied).real)


def group_loop_grouped_operator(op, rows: np.ndarray | None = None):
    """``sim._grouped_operator`` one X-mask group at a time: each group's
    terms are summed in the order of ``op`` from +0 by a reduce over the
    term axis.  On a single output row that reduce would add pairwise, so
    the group is then summed by an explicit loop."""
    groups = {}
    for string, coeff in op:
        x, z = string.x_mask, string.z_mask
        groups.setdefault(x, []).append((z, 1j ** ((x & z).bit_count() % 4), coeff))
    x_masks = np.fromiter(groups, dtype=np.intp, count=len(groups))
    rows = np.arange(2**op.n_qubits, dtype=np.intp) if rows is None else rows
    gathers = rows[None, :] ^ x_masks[:, None]
    diagonals = np.empty(gathers.shape, dtype=np.complex128)
    for gather, diagonal, terms in zip(gathers, diagonals, groups.values()):
        z_masks, phases, coeffs = (np.array(column) for column in zip(*terms))
        signs = 1.0 - 2.0 * parity_of_masked_bits(gather, z_masks[:, None]).astype(np.float64)
        values = coeffs[:, None] * (phases[:, None] * signs)
        if len(rows) > 1:
            np.add.reduce(values, axis=0, initial=0.0, out=diagonal)
        else:
            diagonal[:] = 0.0
            for value in values:
                diagonal += value
    if not diagonals.imag.any():
        diagonals = np.ascontiguousarray(diagonals.real)
    return diagonals, gathers


def group_loop_apply_operator(columns: np.ndarray, table) -> np.ndarray:
    """``sim._apply_operator`` accumulated from zero one X-mask group at a
    time, in group order and in the common type of table and amplitudes."""
    diagonals, gathers = table
    per_state = (slice(None),) + (None,) * (columns.ndim - 1)
    applied = np.zeros(diagonals.shape[1:] + columns.shape[1:], dtype=np.result_type(diagonals, columns))
    for diagonal, gather in zip(diagonals, gathers):
        applied += diagonal[per_state] * columns[gather]
    return applied


def unfolded_evolve_rows(ansatz, thetas: np.ndarray) -> np.ndarray:
    """``sim._evolve_rows`` with each rotation's factors applied to the
    gathered amplitudes before the trig values, ((a f) s; a c), on the
    entries :func:`reference_reachable_rotations` keeps: five numpy calls
    per rotation, gather, two scalings, add and scatter."""
    from qcembed.sim import _columns

    rotations, _ = reference_reachable_rotations(ansatz.generators, ansatz.reference_index)
    n = ansatz.n_parameters
    trig_rows = [row for k, (_, _, factors) in enumerate(rotations) for row in [k] * len(factors) + [n + k] * len(factors)]
    trig = _columns(np.concatenate([np.sin(thetas), np.cos(thetas)], axis=1))[np.array(trig_rows, dtype=np.intp)]
    amps = np.zeros((2**ansatz.n_qubits,) + trig.shape[1:])
    amps[ansatz.reference_index] = 1.0
    per_state = (slice(None),) + (None,) * (amps.ndim - 1)
    stop = 0
    for connected, source, factors in rotations:
        moved, scales = np.concatenate([source, connected]), np.concatenate([factors, np.ones(len(factors))])
        start, stop, half = stop, stop + len(moved), len(moved) // 2
        rotated = amps[moved]
        rotated *= scales[per_state]
        rotated *= trig[start:stop]
        kept = rotated[half:]
        kept += rotated[:half]
        amps[moved[half:]] = kept
    return np.atleast_2d(amps.T)


def reference_map_with_ladder(op, ladder):
    """Qubit image of a FermionOperator, adding each term's ladder product
    to a running sum.  Only the strings a product touches can fall below
    the prune tolerance, so pruning those after each addition is the
    prune a rebuilt ``PauliSum`` would apply to the whole sum."""
    from qcembed.pauli import PRUNE_TOLERANCE, PauliSum

    n = op.n_modes
    acc = {}
    for term, coeff in op.items():
        product = PauliSum.identity(n, coeff)
        for mode, creation in term:
            product = product @ ladder(mode, n, creation)
        for string, value in product:
            acc[string] = acc.get(string, 0.0) + value
            if abs(acc[string]) < PRUNE_TOLERANCE:
                del acc[string]
    return PauliSum(n, acc)


def reference_map_operator(op, mapping, two_qubit_reduced, n_electrons, n_alpha):
    """Qubit image of a fermion operator mapped term by term with
    ``map_parity`` and then ``two_qubit_reduction``, or with
    ``map_jordan_wigner``: the route the compiled linear map replaces."""
    from qcembed.mappings import ReductionError, map_jordan_wigner, map_parity, two_qubit_reduction

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


def reference_map_active_hamiltonian(active, spin_2ms=0, mapping="parity", two_qubit_reduced=True):
    """Qubit image of an active Hamiltonian through its fermion operator:
    expand every integral into ladder terms, map the operator, reduce it,
    then check and drop the imaginary residue."""
    from qcembed.fermion import spin_orbital_hamiltonian
    from qcembed.pauli import PauliSum

    op = spin_orbital_hamiltonian(active)
    n_alpha = (active.n_electrons + spin_2ms) // 2
    mapped = reference_map_operator(op, mapping, two_qubit_reduced, active.n_electrons, n_alpha)
    residue = mapped.max_imaginary_part()
    if residue > 1e-10:
        raise ValueError(f"imaginary coefficient residue {residue:.3e} exceeds {1e-10:.1e}")
    return PauliSum(mapped.n_qubits, {s: complex(c.real) for s, c in mapped})


def reference_symmetry_radical(term_vectors: list[int], n: int) -> list[int]:
    """Reduced row echelon basis of S intersect S-perp, intersecting the
    span S of the term vectors with S-perp, the GF(2) kernel of the
    terms' commutation rows: the combinations of S-perp's basis whose
    residue after elimination against S is zero lie in S."""
    from qcembed.tapering import _gf2_kernel, _gf2_rref, _symplectic_partner

    width = 2 * n
    span_rows, span_pivots = _gf2_rref(list(term_vectors), width)
    perp_basis = _gf2_kernel([_symplectic_partner(v, n) for v in term_vectors], width)
    residues = []
    for vector in perp_basis:
        for row, pivot in zip(span_rows, span_pivots):
            if (vector >> pivot) & 1:
                vector ^= row
        residues.append(vector)
    # sum_i c_i residues[i] = 0: the residue matrix read column-wise
    coefficient_rows = []
    for col in range(width):
        row = sum(((r >> col) & 1) << i for i, r in enumerate(residues))
        if row:
            coefficient_rows.append(row)
    radical = []
    for combo in _gf2_kernel(coefficient_rows, len(perp_basis)):
        vector = 0
        for i, b in enumerate(perp_basis):
            if (combo >> i) & 1:
                vector ^= b
        radical.append(vector)
    return _gf2_rref(radical, width)[0]


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


def reference_spin_summed_one_rdm(amps: np.ndarray, n_spatial: int) -> np.ndarray:
    """gamma_pq = <a+_p,sigma a_q,sigma> summed over spin, from occupation-
    basis amplitudes on 2 * n_spatial blocked modes, one mode pair at a
    time with the Jordan-Wigner sign of every ladder operator."""
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


def reference_two_pass_one_rdm(amps: np.ndarray, n_spatial: int) -> np.ndarray:
    """``sim.spin_summed_one_rdm`` as it read every state before it learnt
    to skip a zero imaginary part: both the real and the imaginary pass in
    every (N_alpha, N_beta) sector."""
    from qcembed.fci import _string_space

    nonzero = np.flatnonzero(amps)
    sectors = np.bitwise_count(nonzero & ((1 << n_spatial) - 1)) * (n_spatial + 1)
    sectors += np.bitwise_count(nonzero >> n_spatial)
    gamma = np.zeros((n_spatial, n_spatial))
    for sector in np.unique(sectors).tolist():
        space = _string_space(n_spatial, *divmod(sector, n_spatial + 1))
        alpha, beta = space.alpha.strings, space.beta.strings
        vector = amps[alpha[:, None] | (beta[None, :] << n_spatial)].ravel()
        gamma += space.one_rdm(vector.real)
        gamma += space.one_rdm(vector.imag)
    return gamma


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


def reference_lanczos_ground(matvec, dimension: int) -> tuple[float, np.ndarray]:
    """Lowest eigenpair of the symmetric operator ``matvec`` by ARPACK
    Lanczos (``eigsh``, machine-precision tolerance) from the Hartree-Fock
    determinant, basis vector 0: the iterative FCI solve the Davidson
    iteration replaced."""
    import scipy.sparse.linalg

    if dimension == 1:  # ARPACK needs k < N; a 1 x 1 operator is its own eigenpair
        return float(matvec(np.ones(1))[0]), np.ones(1)
    operator = scipy.sparse.linalg.LinearOperator((dimension, dimension), matvec=matvec, dtype=np.float64)
    start = np.zeros(dimension)
    start[0] = 1.0
    energies, vectors = scipy.sparse.linalg.eigsh(operator, k=1, which="SA", v0=start)
    return float(energies[0]), vectors[:, 0]


def reference_alpha_sigma_matrix(space):
    """The alpha product of the FCI matvec as a scipy CSR matrix S, with
    S[I, J * n_pairs + pair] = s for each alpha entry E_pq|I> = s|J> of
    the package's excitation table (``fci._StringSpace``): the operator
    the numpy gather-and-sum replaced.  S @ G.reshape(-1, m_b) is the
    alpha half of sum_pair E+_pair G_pair."""
    import scipy.sparse

    a = space.alpha
    m_a, width = a.pq.shape
    n_pairs = len(space.pairs)
    columns = a.target * n_pairs + space.pair_of[a.pq]
    return scipy.sparse.csr_array(
        (a.sign.ravel(), columns.ravel(), np.arange(m_a + 1) * width),
        shape=(m_a, m_a * n_pairs),
    )


def reference_even_hamiltonian_operator(space, basis, k: np.ndarray, eri: np.ndarray):
    """x -> P^T H P x on the spin-flip-even basis of an n_alpha == n_beta
    sector over the whole (m, n_pairs, m) D_a: the operator the packed
    triangle replaced (``fci._StringSpace`` and ``fci._SpinFlipEvenBasis``
    give the tables and the basis).  For C = C^T on one string table the
    beta gather is the transposed alpha gather, so D+ = D_a + D_a^T;
    G = 1/2 (pq|rs) D+ is symmetric in (I, i) as well, and the general
    operator's sigma becomes sigma_a + sigma_a^T + k D+ with sigma_a = S G
    its alpha half (``fci._alpha_sigma``).  P^T sigma_a^T = P^T sigma_a,
    so the result is P^T (2 sigma_a + k D+)."""
    from qcembed.fci import _alpha_sigma

    m = basis.m
    alpha_sigma = _alpha_sigma(space)
    alpha_rows = space.alpha.gather_rows().ravel()
    half_eri = 0.5 * eri[np.ix_(space.pairs, space.pairs)]
    k = k[space.pairs]
    d = np.empty((m, len(space.pairs), m))
    d_alpha = np.empty_like(d)

    def matvec(x: np.ndarray) -> np.ndarray:
        c = basis.unpack(x).reshape(m, m)
        rows = np.concatenate((c, -c, np.zeros((1, m))))
        np.take(rows, alpha_rows, axis=0, out=d_alpha.reshape(-1, m), mode="clip")
        # a transposed copy and a contiguous add beat one add with a
        # transposed operand
        np.copyto(d, d_alpha.transpose(2, 1, 0))
        np.add(d, d_alpha, out=d)
        g = np.matmul(half_eri, d, out=d_alpha)  # D_a is spent
        sigma = alpha_sigma(g)  # sigma_a
        sigma *= 2.0
        sigma += np.matmul(k, d)
        return basis.pack(sigma.ravel())

    return matvec


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


def reference_minimize(hamiltonian, ansatz, config):
    """VQE minimization with the central-difference gradient evaluated one
    shifted parameter vector at a time, each through the public
    ``evolve_ansatz`` and ``expectation``."""
    import scipy.optimize

    from qcembed.sim import evolve_ansatz, expectation
    from qcembed.vqe import VqeError, VqeResult, initialize_parameters

    trace = []
    last_eval = {"value": None}

    def objective(theta):
        energy = expectation(evolve_ansatz(ansatz, theta), hamiltonian)
        if not np.isfinite(energy):
            raise VqeError(f"non-finite energy {energy} during optimization", list(trace))
        trace.append((len(trace), energy))
        last_eval["value"] = (np.array(theta, dtype=float), energy)
        return energy

    n = ansatz.n_parameters
    x0 = initialize_parameters(n, config)
    if n == 0:
        energy = objective(x0)
        return VqeResult(energy, x0, tuple(trace), len(trace), True, (energy,))

    def gradient(theta):
        h = config.gradient_step
        grad = np.empty(n)
        for k in range(n):
            shifted = np.array(theta, dtype=float)
            shifted[k] = theta[k] + h
            plus = objective(shifted)
            shifted[k] = theta[k] - h
            minus = objective(shifted)
            grad[k] = (plus - minus) / (2.0 * h)
        return grad

    iterate_energies = []
    best = {"value": None}

    class Converged(Exception):
        pass

    def callback(xk):
        cached = last_eval["value"]
        if cached is not None and np.array_equal(cached[0], xk):
            energy = cached[1]
        else:
            energy = objective(xk)
        previous = iterate_energies[-1] if iterate_energies else None
        iterate_energies.append(energy)
        best["value"] = (np.array(xk, dtype=float), energy)
        if previous is not None and abs(energy - previous) < config.tolerance:
            raise Converged

    converged = False
    try:
        result = scipy.optimize.minimize(
            objective,
            x0,
            jac=gradient,
            method="L-BFGS-B",
            bounds=[(-np.pi, np.pi)] * n,
            callback=callback,
            options={"maxiter": config.max_iterations, "ftol": 0.0, "gtol": 1e-12},
        )
        parameters = np.array(result.x, dtype=float)
        energy = float(result.fun)
        if len(iterate_energies) >= 2:
            converged = abs(iterate_energies[-1] - iterate_energies[-2]) < config.tolerance
    except Converged:
        parameters, energy = best["value"]
        converged = True
    if not iterate_energies:
        iterate_energies.append(energy)
    return VqeResult(
        energy, parameters, tuple(trace), len(trace), converged, tuple(iterate_energies)
    )


def reference_fix_eigenvector_signs(vectors: np.ndarray) -> np.ndarray:
    """Make the largest-magnitude component of each column positive, one
    column at a time; ties go to the lower row index."""
    out = vectors.copy()
    for col in range(out.shape[1]):
        pivot = int(np.argmax(np.abs(out[:, col])))
        if out[pivot, col] < 0:
            out[:, col] = -out[:, col]
    return out


def finite_eigh(matrix: np.ndarray):
    """``np.linalg.eigh`` after the finite-input check of ``scipy.linalg.eigh``."""
    if not np.isfinite(matrix).all():
        raise ValueError("array must not contain infs or NaNs")
    return np.linalg.eigh(matrix)


def reference_solve_rhf(
    integrals, max_iter: int = 100, tol: float = 1e-10, mixing: float = 0.5, eigh=finite_eigh
):
    """``meanfield.solve_rhf`` with the per-column sign loop on every
    Roothaan step, where the package fixes signs only on the returned
    orbitals, diagonalizing with ``eigh`` (default: ``np.linalg.eigh``
    after a finite-input check, as the package does)."""
    from qcembed.meanfield import MeanFieldResult, ScfError, _occupy, build_fock, electronic_energy

    if integrals.n_electrons % 2 != 0:
        raise ScfError(
            f"restricted closed-shell solver requires an even electron count, got {integrals.n_electrons}"
        )
    if max_iter < 1:
        raise ScfError(f"max_iter must be >= 1, got {max_iter}")
    if not 0.0 < mixing <= 1.0:
        raise ScfError(f"mixing must lie in (0, 1], got {mixing}")

    n_occ = integrals.n_electrons // 2

    eps, coeff = eigh(integrals.one_body)
    coeff = reference_fix_eigenvector_signs(coeff)
    density = _occupy(eps, coeff, n_occ)
    fock = build_fock(integrals, density)
    energy = electronic_energy(integrals, density, fock)

    converged = False
    iterations = 0
    history: list[float] = []
    for iteration in range(1, max_iter + 1):
        iterations = iteration
        eps, coeff = eigh(fock)
        coeff = reference_fix_eigenvector_signs(coeff)
        new_density = _occupy(eps, coeff, n_occ)
        density = (1.0 - mixing) * density + mixing * new_density
        fock = build_fock(integrals, density)
        new_energy = electronic_energy(integrals, density, fock)
        delta = abs(new_energy - energy)
        energy = new_energy
        history.append(energy)
        if delta < tol:
            converged = True
            break

    eps, coeff = eigh(fock)
    coeff = reference_fix_eigenvector_signs(coeff)
    density = _occupy(eps, coeff, n_occ)
    fock = build_fock(integrals, density)
    energy = electronic_energy(integrals, density, fock)

    return MeanFieldResult(
        energy=energy,
        orbital_energies=eps,
        orbital_coefficients=coeff,
        density=density,
        converged=converged,
        iterations=iterations,
        energy_history=tuple(history),
    )


def reference_transform_to_mo_basis(integrals, coefficients: np.ndarray):
    """``activespace.transform_to_mo_basis`` as its four quarter
    transforms spelled as ``np.einsum(..., optimize=True)`` calls."""
    c = np.asarray(coefficients)
    h_mo = c.T @ integrals.one_body @ c
    eri = integrals.two_body_dense
    eri = np.einsum("pi,pqrs->iqrs", c, eri, optimize=True)
    eri = np.einsum("qj,iqrs->ijrs", c, eri, optimize=True)
    eri = np.einsum("rk,ijrs->ijks", c, eri, optimize=True)
    eri_mo = np.einsum("sl,ijks->ijkl", c, eri, optimize=True)
    return h_mo, eri_mo
