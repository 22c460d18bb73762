"""Exact diagonalization against brute-force Fock-space oracles, the
Slater-Condon determinant oracle and goldens."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qcembed.fci as fci
from qcembed.activespace import ActiveHamiltonian, ActiveSpaceSpec, reduce_integrals
from qcembed.fci import FciCapacityError, FciError, compute_1rdm, fci_solve
from qcembed.integrals import SymmetricTwoBody
from qcembed.meanfield import solve_rhf

from oracles import (
    brute_force_ground_energy,
    brute_force_one_rdm,
    brute_force_spectrum,
    random_active_hamiltonian,
    reference_fci_matrix,
    reference_fci_one_rdm,
)
from conftest import FIXTURE_DIR


def _single_orbital(h11=-0.9, v=0.55):
    two = SymmetricTwoBody(1)
    two.set(0, 0, 0, 0, v)
    return ActiveHamiltonian(1, 2, 0.0, np.array([[h11]]), two)


def test_two_electrons_one_orbital_closed_form():
    result = fci_solve(_single_orbital())
    assert result.basis_dimension == 1
    assert result.ground_energy == pytest.approx(2 * -0.9 + 0.55, abs=1e-14)


def test_h2_total_energy_matches_golden(golden, h2_integrals):
    mf = solve_rhf(h2_integrals)
    active = reduce_integrals(h2_integrals, mf, ActiveSpaceSpec(2, 2))
    result = fci_solve(active)
    total = result.ground_energy + active.inactive_energy
    assert total == pytest.approx(golden["h2_0735"]["e_fci"], abs=1e-8)
    assert total == pytest.approx(-1.137, abs=1e-3)  # literature anchor


def test_random_hamiltonians_match_brute_force():
    rng = np.random.default_rng(51)
    for n_orbitals, n_alpha, n_beta in ((2, 1, 1), (3, 1, 1), (3, 2, 1), (2, 2, 1)):
        active = random_active_hamiltonian(rng, n_orbitals)
        expected, _, _ = brute_force_ground_energy(active, n_alpha, n_beta)
        result = fci_solve(
            active, n_electrons=n_alpha + n_beta, s_z=(n_alpha - n_beta) / 2
        )
        assert result.ground_energy == pytest.approx(expected, abs=1e-10)


def test_full_spectrum_matches_brute_force():
    rng = np.random.default_rng(52)
    active = random_active_hamiltonian(rng, 3)
    expected = brute_force_spectrum(active, 2, 1)
    # Slater-Condon path: dense eigendecomposition of the same sector
    matrix = reference_fci_matrix(active, 2, 1)
    assert np.allclose(np.linalg.eigvalsh(matrix), np.sort(expected), atol=1e-10)


def test_dense_and_iterative_paths_agree(h2o_integrals):
    mf = solve_rhf(h2o_integrals)
    active = reduce_integrals(h2o_integrals, mf, ActiveSpaceSpec(10, 7))
    dense = fci_solve(active, dense_limit=2000)
    iterative = fci_solve(active, dense_limit=10)
    assert iterative.ground_energy == pytest.approx(dense.ground_energy, abs=1e-9)


def test_lih_full_fci_matches_golden(golden, lih_integrals):
    mf = solve_rhf(lih_integrals)
    active = reduce_integrals(lih_integrals, mf, ActiveSpaceSpec(4, 6))
    result = fci_solve(active)
    total = result.ground_energy + active.inactive_energy
    assert total == pytest.approx(golden["lih"]["e_fci"], abs=1e-8)


def test_eigenpair_residual():
    rng = np.random.default_rng(53)
    active = random_active_hamiltonian(rng, 3)
    result = fci_solve(active, n_electrons=2, s_z=0.0)
    matrix = reference_fci_matrix(active, 1, 1)
    residual = np.linalg.norm(matrix @ result.ground_vector - result.ground_energy * result.ground_vector)
    assert residual <= 1e-8 * np.linalg.norm(matrix)


def test_one_rdm_single_determinant():
    result = fci_solve(_single_orbital())
    assert np.allclose(result.one_rdm, [[2.0]], atol=1e-14)
    assert np.allclose(compute_1rdm(result), result.one_rdm, atol=0)


def test_one_rdm_trace_and_bounds(golden, h2_integrals, lih_integrals):
    for integrals, spec in ((h2_integrals, (2, 2)), (lih_integrals, (2, 2)), (lih_integrals, (4, 4))):
        mf = solve_rhf(integrals)
        active = reduce_integrals(integrals, mf, ActiveSpaceSpec(*spec))
        result = fci_solve(active)
        gamma = result.one_rdm
        assert np.allclose(gamma, gamma.T, atol=1e-10)
        assert np.trace(gamma) == pytest.approx(spec[0], abs=1e-10)
        occupations = np.linalg.eigvalsh(gamma)
        assert occupations.min() >= -1e-8
        assert occupations.max() <= 2.0 + 1e-8


def test_one_rdm_matches_brute_force():
    rng = np.random.default_rng(54)
    active = random_active_hamiltonian(rng, 2)
    expected_energy, vector, fock_indices = brute_force_ground_energy(active, 1, 1)
    oracle_rdm = brute_force_one_rdm(vector, fock_indices, 2)
    result = fci_solve(active, n_electrons=2, s_z=0.0)
    assert result.ground_energy == pytest.approx(expected_energy, abs=1e-10)
    # global sign of the eigenvector cancels in the RDM
    assert np.allclose(result.one_rdm, oracle_rdm, atol=1e-9)


def test_energy_invariant_under_spin_flip():
    rng = np.random.default_rng(55)
    active = random_active_hamiltonian(rng, 3)
    up = fci_solve(active, n_electrons=3, s_z=0.5)
    down = fci_solve(active, n_electrons=3, s_z=-0.5)
    assert up.ground_energy == pytest.approx(down.ground_energy, abs=1e-10)


def test_capacity_cap():
    rng = np.random.default_rng(56)
    active = random_active_hamiltonian(rng, 4)
    with pytest.raises(FciCapacityError, match="cap"):
        fci_solve(active, n_electrons=4, s_z=0.0, dimension_cap=10)


@pytest.mark.parametrize(
    "n, n_electrons, s_z, message",
    [(40, 20, 0.0, "exceeds the cap"), (63, 1, 0.5, "63 orbitals exceed the 62")],
)
def test_capacity_checked_before_enumerating_strings(monkeypatch, n, n_electrons, s_z, message):
    active = ActiveHamiltonian(n, n_electrons, 0.0, np.eye(n), SymmetricTwoBody(n))

    def enumerate_strings(*_):
        raise AssertionError("strings enumerated before the capacity check")

    monkeypatch.setattr(fci, "_bit_strings", enumerate_strings)
    with pytest.raises(FciCapacityError, match=message):
        fci_solve(active, s_z=s_z)


def test_single_determinant_takes_dense_path_at_zero_dense_limit():
    result = fci_solve(_single_orbital(), dense_limit=0)
    assert result.basis_dimension == 1
    assert result.ground_energy == pytest.approx(2 * -0.9 + 0.55, abs=1e-14)
    assert np.allclose(result.one_rdm, [[2.0]], atol=1e-14)


def test_inconsistent_spin_specification():
    with pytest.raises(FciError, match="inconsistent"):
        fci_solve(_single_orbital(), n_electrons=2, s_z=0.5)
    with pytest.raises(FciError, match="s_z"):
        fci_solve(_single_orbital(), n_electrons=2, s_z=0.3)


def test_natural_occupation_spread_grows_with_bond_length(golden):
    """The correlation hole deepens as H2 stretches: the second natural
    occupation grows monotonically across the fixture series."""
    from qcembed.integrals import read_fcidump

    minor_occupations = []
    for key in ("h2_0735", "h2_1100", "h2_1500"):
        integrals = read_fcidump(FIXTURE_DIR / golden[key]["file"])
        mf = solve_rhf(integrals)
        active = reduce_integrals(integrals, mf, ActiveSpaceSpec(2, 2))
        result = fci_solve(active)
        total = result.ground_energy + active.inactive_energy
        assert total == pytest.approx(golden[key]["e_fci"], abs=1e-8)
        occupations = np.sort(np.linalg.eigvalsh(result.one_rdm))
        minor_occupations.append(occupations[0])
    assert minor_occupations[0] < minor_occupations[1] < minor_occupations[2]


def test_variational_bound_against_vqe(golden, h2_integrals):
    from qcembed.sim import build_uccsd_ansatz, map_active_hamiltonian
    from qcembed.vqe import VqeConfig, minimize

    mf = solve_rhf(h2_integrals)
    active = reduce_integrals(h2_integrals, mf, ActiveSpaceSpec(2, 2))
    fci = fci_solve(active)
    hamiltonian = map_active_hamiltonian(active)
    ansatz = build_uccsd_ansatz(active.n_orbitals, active.n_electrons)
    vqe_result = minimize(hamiltonian, ansatz, VqeConfig(seed=1))
    assert fci.ground_energy <= vqe_result.energy + 1e-9


@st.composite
def sectors(draw):
    """A random 8-fold-symmetric Hamiltonian on n <= 5 orbitals and one of
    its (n_alpha, n_beta) sectors, with a random unit vector in it."""
    n = draw(st.integers(1, 5))
    n_alpha, n_beta = draw(st.integers(0, n)), draw(st.integers(0, n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    active = random_active_hamiltonian(rng, n)
    space = fci._StringSpace(n, fci._bit_strings(n, n_alpha), fci._bit_strings(n, n_beta))
    vector = rng.normal(size=space.dimension)
    return active, n_alpha, n_beta, space, vector / np.linalg.norm(vector)


@given(sectors())
@settings(max_examples=60, deadline=None)
def test_dense_matrix_matches_slater_condon(case):
    active, n_alpha, n_beta, space, _ = case
    matrix = fci._dense_hamiltonian(space, *fci._integrals(active))
    np.testing.assert_allclose(matrix, reference_fci_matrix(active, n_alpha, n_beta), rtol=0, atol=1e-12)


@given(sectors())
@settings(max_examples=60, deadline=None)
def test_matvec_matches_slater_condon(case):
    active, n_alpha, n_beta, space, vector = case
    operator = fci._hamiltonian_operator(space, *fci._integrals(active))
    expected = reference_fci_matrix(active, n_alpha, n_beta) @ vector
    np.testing.assert_allclose(operator @ vector, expected, rtol=0, atol=1e-12)


@given(sectors())
@settings(max_examples=60, deadline=None)
def test_one_rdm_matches_slater_condon(case):
    active, n_alpha, n_beta, space, vector = case
    expected = reference_fci_one_rdm(active.n_orbitals, n_alpha, n_beta, vector)
    np.testing.assert_allclose(space.one_rdm(vector), expected, rtol=0, atol=1e-12)
