"""Fermion-to-qubit mappings against brute-force Fock-space matrices."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcembed.fermion import FermionOperator
from qcembed.mappings import (
    ReductionError,
    _jw_ladder,
    _parity_ladder,
    map_jordan_wigner,
    map_parity,
    occupation_to_parity_bits,
    two_qubit_reduction,
)
from qcembed.pauli import PauliString, PauliSum

from oracles import (
    fermion_operator_matrix,
    pauli_sum_matrix,
    random_hermitian_fermion_operator,
    reference_map_with_ladder,
    sector_indices,
)

MAPPERS = ((map_jordan_wigner, _jw_ladder), (map_parity, _parity_ladder))


def parity_basis_permutation(n_modes: int) -> np.ndarray:
    """Permutation matrix sending each occupation basis state |n> to the
    cumulative-parity state |p(n)>; conjugating the Fock-space matrix with it
    is the defining property of the parity encoding."""
    dim = 2**n_modes
    matrix = np.zeros((dim, dim))
    for occupation in range(dim):
        matrix[occupation_to_parity_bits(occupation, n_modes), occupation] = 1.0
    return matrix


def test_jw_number_operator_textbook():
    op = FermionOperator(2, {((0, True), (0, False)): 1.0})
    mapped = map_jordan_wigner(op)
    expected = PauliSum.from_label_dict({"II": 0.5, "ZI": -0.5})
    assert mapped.allclose(expected, tol=1e-14)


def test_identity_maps_to_identity():
    op = FermionOperator.identity(3, 2.5)
    for mapper in (map_jordan_wigner, map_parity):
        mapped = mapper(op)
        assert len(mapped) == 1
        assert mapped.coefficient(PauliString.identity(3)) == pytest.approx(2.5)


def test_jw_matches_fock_space_matrix_exactly():
    rng = np.random.default_rng(21)
    for _ in range(12):
        n_modes = int(rng.integers(1, 6))
        op = random_hermitian_fermion_operator(rng, n_modes)
        dense_fermion = fermion_operator_matrix(op)
        dense_qubit = pauli_sum_matrix(map_jordan_wigner(op))
        assert np.allclose(dense_fermion, dense_qubit, atol=1e-12)


def test_parity_number_operators_textbook():
    n0 = FermionOperator(2, {((0, True), (0, False)): 1.0})
    assert map_parity(n0).allclose(PauliSum.from_label_dict({"II": 0.5, "ZI": -0.5}), tol=1e-14)
    n1 = FermionOperator(2, {((1, True), (1, False)): 1.0})
    assert map_parity(n1).allclose(PauliSum.from_label_dict({"II": 0.5, "ZZ": -0.5}), tol=1e-14)


def test_parity_matches_permuted_fock_space_matrix_exactly():
    rng = np.random.default_rng(22)
    for _ in range(10):
        n_modes = int(rng.integers(1, 7))
        op = random_hermitian_fermion_operator(rng, n_modes)
        dense_parity = pauli_sum_matrix(map_parity(op))
        permutation = parity_basis_permutation(n_modes)
        expected = permutation @ fermion_operator_matrix(op) @ permutation.T
        assert np.allclose(dense_parity, expected, atol=1e-12)


def test_jw_parity_identical_eigenvalue_multisets():
    rng = np.random.default_rng(23)
    for _ in range(8):
        n_modes = int(rng.integers(2, 7))
        op = random_hermitian_fermion_operator(rng, n_modes)
        jw_eigs = np.linalg.eigvalsh(pauli_sum_matrix(map_jordan_wigner(op)))
        parity_eigs = np.linalg.eigvalsh(pauli_sum_matrix(map_parity(op)))
        assert np.allclose(jw_eigs, parity_eigs, atol=1e-10)


def test_hermitian_input_gives_real_coefficients():
    rng = np.random.default_rng(24)
    for _ in range(6):
        op = random_hermitian_fermion_operator(rng, 4)
        for mapper in (map_jordan_wigner, map_parity):
            assert mapper(op).max_imaginary_part() < 1e-10


def test_occupation_to_parity_bits():
    # modes 0 and 2 occupied: parities 1,1,0,0 reading qubit 0 upward
    assert occupation_to_parity_bits(0b0101, 4) == 0b0011
    assert occupation_to_parity_bits(0b0001, 4) == 0b1111
    assert occupation_to_parity_bits(0, 4) == 0


def test_two_qubit_reduction_counts():
    # 6 spatial orbitals -> 12 parity qubits -> 10 after the reduction
    op = PauliSum.identity(12, 1.0)
    reduced = two_qubit_reduction(op, n_electrons_total=4, n_electrons_alpha=2)
    assert reduced.n_qubits == 10


def test_two_qubit_reduction_identity_four_to_two():
    op = PauliSum.identity(4, 3.0)
    reduced = two_qubit_reduction(op, 2, 1)
    assert reduced.n_qubits == 2
    assert reduced.coefficient(PauliString.identity(2)) == pytest.approx(3.0)


def test_two_qubit_reduction_sector_signs():
    # Z on the alpha-parity qubit picks up (-1)^n_alpha
    op = PauliSum.from_label_dict({"IZII": 1.0})  # qubit 1 = alpha parity for M=2
    reduced = two_qubit_reduction(op, 2, 1)
    assert reduced.coefficient(PauliString.identity(2)) == pytest.approx(-1.0)
    reduced_even = two_qubit_reduction(op, 2, 2)
    assert reduced_even.coefficient(PauliString.identity(2)) == pytest.approx(1.0)


def test_two_qubit_reduction_rejects_non_symmetric():
    op = PauliSum.from_label_dict({"IXII": 1.0})
    with pytest.raises(ReductionError, match="parity"):
        two_qubit_reduction(op, 2, 1)


def test_h2_fixture_mapping_chain_reaches_fci(golden, h2_integrals):
    """Fixture H2: JW sector ground, parity + reduction ground, and the
    package FCI all agree to 1e-10."""
    from qcembed.activespace import ActiveSpaceSpec, reduce_integrals
    from qcembed.fci import fci_solve
    from qcembed.fermion import spin_orbital_hamiltonian
    from qcembed.meanfield import solve_rhf

    mf = solve_rhf(h2_integrals)
    active = reduce_integrals(h2_integrals, mf, ActiveSpaceSpec(2, 2))
    fci_energy = fci_solve(active).ground_energy
    op = spin_orbital_hamiltonian(active)

    jw_dense = pauli_sum_matrix(map_jordan_wigner(op))
    idx = sector_indices(4, 2, 1, 1)
    jw_sector_ground = float(np.linalg.eigvalsh(jw_dense[np.ix_(idx, idx)])[0])
    assert jw_sector_ground == pytest.approx(fci_energy, abs=1e-10)

    reduced = two_qubit_reduction(map_parity(op), 2, 1)
    assert reduced.n_qubits == 2
    reduced_ground = float(np.linalg.eigvalsh(pauli_sum_matrix(reduced))[0])
    assert reduced_ground == pytest.approx(fci_energy, abs=1e-10)


def test_reduced_ground_energy_preserved_in_sector():
    """Parity + reduction keeps the sector ground energy: compare against the
    fermionic matrix restricted to the (n_alpha, n_beta) block."""
    rng = np.random.default_rng(25)
    n_spatial = 2
    for n_alpha, n_beta in ((1, 1), (2, 1), (1, 0)):
        from oracles import random_active_hamiltonian
        from qcembed.fermion import spin_orbital_hamiltonian

        active = random_active_hamiltonian(rng, n_spatial)
        op = spin_orbital_hamiltonian(active)
        parity_full = map_parity(op)
        reduced = two_qubit_reduction(parity_full, n_alpha + n_beta, n_alpha)

        dense = fermion_operator_matrix(op)
        idx = sector_indices(op.n_modes, n_spatial, n_alpha, n_beta)
        sector_ground = float(np.linalg.eigvalsh(dense[np.ix_(idx, idx)])[0])

        reduced_eigs = np.linalg.eigvalsh(pauli_sum_matrix(reduced))
        assert reduced_eigs[0] == pytest.approx(sector_ground, abs=1e-10)


@pytest.mark.parametrize(
    "molecule, n_electrons, n_orbitals",
    [("h2", 2, 2), ("lih", 2, 3), ("h2o", 4, 4), ("h2o", 8, 6)],
)
def test_one_pass_mapping_is_bitwise_reference_on_fixtures(
    request, molecule, n_electrons, n_orbitals
):
    from qcembed.activespace import ActiveSpaceSpec, reduce_integrals
    from qcembed.fermion import spin_orbital_hamiltonian
    from qcembed.meanfield import solve_rhf

    integrals = request.getfixturevalue(f"{molecule}_integrals")
    active = reduce_integrals(
        integrals, solve_rhf(integrals), ActiveSpaceSpec(n_electrons, n_orbitals)
    )
    op = spin_orbital_hamiltonian(active)
    for mapper, ladder in MAPPERS:
        # PauliSum equality compares every coefficient exactly
        assert mapper(op) == reference_map_with_ladder(op, ladder)


@given(
    seed=st.integers(0, 2**32 - 1),
    n_modes=st.integers(1, 6),
    n_terms=st.integers(1, 12),
)
@settings(max_examples=40, deadline=None)
def test_one_pass_mapping_matches_reference_on_random_operators(seed, n_modes, n_terms):
    op = random_hermitian_fermion_operator(np.random.default_rng(seed), n_modes, n_terms)
    for mapper, ladder in MAPPERS:
        assert mapper(op).allclose(reference_map_with_ladder(op, ladder), tol=1e-12)


def test_one_pass_mapping_prunes_after_every_ladder_factor():
    # each product drops below PRUNE_TOLERANCE after its first ladder
    # factor; unpruned, the two identity terms would add up above it
    op = FermionOperator(2, {((0, True), (0, False)): 1.5e-12, ((1, True), (1, False)): 1.5e-12})
    for mapper, ladder in MAPPERS:
        assert mapper(op) == reference_map_with_ladder(op, ladder)
        assert mapper(op).is_zero
