"""Exact diagonalization against brute-force Fock-space oracles, the
Slater-Condon determinant oracle and goldens."""

import functools
import json
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qcembed.embedding as embedding
import qcembed.fci as fci
from qcembed.activespace import ActiveHamiltonian, ActiveSpaceSpec, reduce_integrals
from qcembed.fci import FciCapacityError, FciConvergenceError, FciError, compute_1rdm, fci_solve
from qcembed.integrals import SymmetricTwoBody, read_fcidump
from qcembed.meanfield import solve_rhf
from qcembed.sim import Statevector, spin_summed_one_rdm

from oracles import (
    brute_force_ground_energy,
    brute_force_one_rdm,
    brute_force_spectrum,
    random_active_hamiltonian,
    reference_alpha_sigma_matrix,
    reference_even_hamiltonian_operator,
    reference_fci_matrix,
    reference_fci_one_rdm,
    reference_lanczos_ground,
)
from conftest import FIXTURE_DIR

BENCH_DATA = Path(__file__).resolve().parent.parent / "bench" / "data"


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
    """H2O (10e,7o), 441 determinants: the Davidson solve against dense
    eigh of the Slater-Condon matrix, whose lowest state is the singlet."""
    mf = solve_rhf(h2o_integrals)
    active = reduce_integrals(h2o_integrals, mf, ActiveSpaceSpec(10, 7))
    dense = np.linalg.eigvalsh(reference_fci_matrix(active, 5, 5))[0]
    iterative = fci_solve(active)
    assert iterative.ground_energy == pytest.approx(dense, abs=1e-10)


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
    """A one-determinant sector converges on Davidson's first Ritz step."""
    result = fci_solve(_single_orbital())
    assert result.basis_dimension == 1
    assert result.ground_energy == pytest.approx(2 * -0.9 + 0.55, abs=1e-14)
    assert result.matvecs == 1
    assert result.residual_norm < fci.DAVIDSON_TOLERANCE
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
    space = fci._string_space(n, n_alpha, n_beta)
    vector = rng.normal(size=space.dimension)
    return active, n_alpha, n_beta, space, vector / np.linalg.norm(vector)


@given(sectors())
@settings(max_examples=60, deadline=None)
def test_matvec_matches_slater_condon(case):
    """P^T H P x on the operator's rows, the packed triangle or the box,
    against the dense Slater-Condon matrix."""
    active, n_alpha, n_beta, space, vector = case
    basis = space.tables.basis
    x = basis.pack(vector)
    operator = fci._hamiltonian_operator(space, *fci._integrals(active))
    expected = basis.pack(reference_fci_matrix(active, n_alpha, n_beta) @ basis.unpack(x))
    np.testing.assert_allclose(operator(x), expected, rtol=0, atol=1e-12)


@given(sectors())
@settings(max_examples=60, deadline=None)
def test_one_rdm_matches_slater_condon(case):
    active, n_alpha, n_beta, space, vector = case
    expected = reference_fci_one_rdm(active.n_orbitals, n_alpha, n_beta, vector)
    np.testing.assert_allclose(space.one_rdm(vector), expected, rtol=0, atol=1e-12)


@settings(max_examples=100, deadline=None)
@given(
    sector=st.integers(1, 6).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, n), st.integers(0, n))),
    seed=st.integers(0, 2**32 - 1),
    scale=st.sampled_from([0.0, 1e-3, 1.0, 30.0]),
)
def test_overlap_one_rdm_matches_both_oracles(sector, seed, scale):
    """The 1-RDM read from the string overlaps C C^T and C^T C, on S_z = 0
    and S_z != 0 sectors of 1-6 orbitals, for unnormalised vectors and
    the zero vector (scale 0): within 1e-12 ||c||^2 of the Slater-Condon
    oracle and, up to 4 orbitals (its dense 2^2n ladder matrices), of the
    Fock-space oracle; exactly symmetric, with trace N ||c||^2."""
    n, n_alpha, n_beta = sector
    space = fci._string_space(n, n_alpha, n_beta)
    vector = scale * np.random.default_rng(seed).normal(size=space.dimension)
    norm2 = float(vector @ vector)
    bound = 1e-12 * norm2
    gamma = space.one_rdm(vector)
    np.testing.assert_array_equal(gamma, gamma.T)
    assert abs(np.trace(gamma) - (n_alpha + n_beta) * norm2) <= bound
    expected = reference_fci_one_rdm(n, n_alpha, n_beta, vector)
    np.testing.assert_allclose(gamma, expected, rtol=0, atol=bound)
    if n <= 4:
        fock_indices = space.alpha.strings[:, None] | (space.beta.strings[None, :] << n)
        expected = brute_force_one_rdm(vector, fock_indices.ravel(), n)
        np.testing.assert_allclose(gamma, expected, rtol=0, atol=bound)


@given(sectors())
@settings(max_examples=60, deadline=None)
def test_diagonal_matches_dense_matrix(case):
    active, n_alpha, n_beta, space, _ = case
    k, eri = fci._integrals(active)
    expected = np.diag(reference_fci_matrix(active, n_alpha, n_beta))
    np.testing.assert_allclose(fci._diagonal(space, k, eri), expected, rtol=0, atol=1e-12)


@settings(max_examples=100, deadline=None)
@given(
    sector=st.integers(1, 6).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, n), st.integers(0, n))),
    seed=st.integers(0, 2**32 - 1),
)
def test_alpha_product_matches_the_csr_oracle(sector, seed):
    """The operator's alpha gather-and-sum over its compiled tables
    against the CSR matrix it replaced, on every sector of up to 6
    orbitals, for G on the operator's rows (symmetric in (I, i) on the
    packed triangle)."""
    n, n_alpha, n_beta = sector
    space = fci._string_space(n, n_alpha, n_beta)
    tables = space.tables
    n_pairs = len(space.pairs)
    g = np.random.default_rng(seed).normal(size=(tables.basis.dimension, n_pairs + 1))
    by_string = g[tables.basis.index, :n_pairs].transpose(0, 2, 1)  # G[I, pair, i]
    expected = reference_alpha_sigma_matrix(space) @ by_string.reshape(-1, space.shape[1])
    actual = np.einsum("Iw,Iwi->Ii", tables.alpha_sign, g.ravel()[tables.alpha_index])
    np.testing.assert_allclose(actual, expected, rtol=0, atol=1e-13)
    if space.shape[1] > 1:
        # einsum then adds a string's entries in table order, as the CSR
        # product does; a one-column G goes through numpy's unrolled sum
        assert actual.tobytes() == expected.tobytes()


def _even_isometry(basis) -> np.ndarray:
    """The packing isometry P of a spin-flip-even basis as a dense matrix."""
    return np.stack([basis.unpack(column) for column in np.eye(basis.dimension)], axis=1)


def _check_davidson_ground(active, n_alpha, n_beta) -> None:
    """Davidson against dense eigh of the Slater-Condon matrix and the
    Lanczos oracle on one sector.

    With n_alpha == n_beta the solve returns the lowest spin-flip-even
    state, so the reference spectrum and the oracle's operator are P^T H P
    over the packed symmetric C (a ground state with an antisymmetric C
    is out of the contract, not missed).
    """
    n = active.n_orbitals
    space = fci._string_space(n, n_alpha, n_beta)
    matrix = reference_fci_matrix(active, n_alpha, n_beta)
    to_basis, dimension = np.asarray, space.dimension
    if n_alpha == n_beta:
        basis = fci._SectorBasis(space.shape[0], space.shape[0], packed=True)
        isometry = _even_isometry(basis)
        matrix = isometry.T @ matrix @ isometry
        to_basis, dimension = basis.pack, basis.dimension

    energies, vectors = np.linalg.eigh(matrix)
    sector = dict(n_electrons=n_alpha + n_beta, s_z=(n_alpha - n_beta) / 2)
    result = fci_solve(active, **sector)
    lanczos_energy, _ = reference_lanczos_ground(matrix.__matmul__, dimension)
    assert 1 <= result.matvecs <= fci.DAVIDSON_MAX_ITERATIONS
    assert result.residual_norm < fci.DAVIDSON_TOLERANCE
    assert result.basis_dimension == space.dimension
    assert result.ground_energy == pytest.approx(energies[0], abs=1e-10)
    assert result.ground_energy == pytest.approx(lanczos_energy, abs=1e-10)
    if dimension == 1 or energies[1] - energies[0] > 1e-3:
        assert abs(vectors[:, 0] @ to_basis(result.ground_vector)) >= 1 - 1e-8


@given(sectors())
@settings(max_examples=60, deadline=None)
def test_davidson_matches_dense_and_lanczos(case):
    active, n_alpha, n_beta, _, _ = case
    _check_davidson_ground(active, n_alpha, n_beta)


@pytest.mark.parametrize(
    "n, n_alpha, n_beta",
    [(4, 0, 2), (4, 4, 1), (3, 3, 2), (5, 2, 0), (5, 3, 1), (4, 1, 3), (5, 2, 2)],
)
def test_davidson_on_empty_full_and_open_shell_sectors(n, n_alpha, n_beta):
    active = random_active_hamiltonian(np.random.default_rng(60 + n), n)
    _check_davidson_ground(active, n_alpha, n_beta)


def test_both_paths_return_the_spin_flip_even_ground_state():
    """The second Hamiltonian of rng(3) on five orbitals has an
    antisymmetric (odd total spin) ground state at -8.80484 Ha in sector
    (2, 2); a dense eigensolver over the whole sector returns it.  The
    Davidson solve and the dense Slater-Condon matrix restricted to the
    spin-flip-even states both give the lowest even state, -8.680028 Ha."""
    rng = np.random.default_rng(3)
    random_active_hamiltonian(rng, 5)
    active = random_active_hamiltonian(rng, 5)
    matrix = reference_fci_matrix(active, 2, 2)
    whole_sector = np.linalg.eigvalsh(matrix)
    assert whole_sector[0] == pytest.approx(-8.80484, abs=1e-5)
    isometry = _even_isometry(fci._SectorBasis(10, 10, packed=True))
    even_sector = np.linalg.eigvalsh(isometry.T @ matrix @ isometry)
    assert even_sector[0] == pytest.approx(whole_sector[1], abs=1e-10)
    result = fci_solve(active, n_electrons=4, s_z=0.0)
    assert result.ground_energy == pytest.approx(-8.680028, abs=1e-6)
    assert result.ground_energy == pytest.approx(even_sector[0], abs=1e-10)
    c = result.ground_vector.reshape(10, 10)
    np.testing.assert_array_equal(c, c.T)


@st.composite
def even_sectors(draw):
    """A random Hamiltonian on n <= 6 orbitals, one of its n_alpha ==
    n_beta sectors and a random unit vector in its spin-flip-even basis."""
    n = draw(st.integers(1, 6))
    n_occupied = draw(st.integers(0, n))
    strings = fci._bit_strings(n, n_occupied)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    active = random_active_hamiltonian(rng, n)
    space = fci._string_space(n, n_occupied, n_occupied)
    basis = fci._SectorBasis(len(strings), len(strings), packed=True)
    x = rng.normal(size=basis.dimension)
    return active, n_occupied, space, basis, x / np.linalg.norm(x)


def _check_matvec(active, n_alpha, n_beta, space, x) -> None:
    """The operator against the dense Slater-Condon matrix on its rows
    and, on the packed triangle, against the full-D_a operator it
    replaced, twice on one operator (its buffers are reused)."""
    k, eri = fci._integrals(active)
    basis = space.tables.basis
    expected = [basis.pack(reference_fci_matrix(active, n_alpha, n_beta) @ basis.unpack(x))]
    if space.alpha is space.beta:
        expected.append(reference_even_hamiltonian_operator(space, basis, k, eri)(x))
    operator = fci._hamiltonian_operator(space, k, eri)
    for _ in range(2):
        actual = operator(x)
        for reference in expected:
            np.testing.assert_allclose(actual, reference, rtol=0, atol=1e-12)


@given(even_sectors())
@settings(max_examples=60, deadline=None)
def test_even_matvec_matches_packed_general_matvec(case):
    active, n_occupied, space, _, x = case
    _check_matvec(active, n_occupied, n_occupied, space, x)


@pytest.mark.parametrize(
    "n, n_occupied", [(n, n_occupied) for n in range(1, 7) for n_occupied in range(n + 1)]
)
def test_even_matvec_on_every_shape_up_to_six_orbitals(n, n_occupied):
    """Every n_alpha == n_beta shape of up to 6 orbitals, one-string
    sectors (m = 1, no electrons or no virtual orbitals) included."""
    rng = np.random.default_rng(100 * n + n_occupied)
    space = fci._string_space(n, n_occupied, n_occupied)
    x = rng.normal(size=space.tables.basis.dimension)
    _check_matvec(random_active_hamiltonian(rng, n), n_occupied, n_occupied, space, x)


@pytest.mark.parametrize(
    "n, n_alpha, n_beta",
    [(n, a, b) for n in range(1, 7) for a in range(n + 1) for b in range(n + 1) if a != b],
)
def test_box_matvec_on_every_sector_up_to_six_orbitals(n, n_alpha, n_beta):
    """Every S_z != 0 sector of up to 6 orbitals, whose operator runs on
    the whole box: its rows are the determinants, in basis order."""
    rng = np.random.default_rng(100 * n + 10 * n_alpha + n_beta)
    space = fci._string_space(n, n_alpha, n_beta)
    basis = space.tables.basis
    assert basis.dimension == space.dimension
    np.testing.assert_array_equal(basis.upper, np.arange(space.dimension))
    _check_matvec(random_active_hamiltonian(rng, n), n_alpha, n_beta, space, rng.normal(size=space.dimension))


def test_open_shell_solve_matches_dense_eigh():
    """(7, 4, 3), 1225 determinants on the box: the Davidson energy
    against dense eigh of the Slater-Condon matrix."""
    active = random_active_hamiltonian(np.random.default_rng(61), 7)
    result = fci_solve(active, n_electrons=7, s_z=0.5)
    assert result.basis_dimension == 1225
    dense = np.linalg.eigvalsh(reference_fci_matrix(active, 4, 3))[0]
    assert result.ground_energy == pytest.approx(dense, abs=1e-10)


def _lowest_even_energy(active, n_occupied: int) -> float:
    """The lowest eigenvalue of the dense Slater-Condon matrix restricted
    to the spin-flip-even states of the n_alpha == n_beta sector."""
    m = len(fci._bit_strings(active.n_orbitals, n_occupied))
    isometry = _even_isometry(fci._SectorBasis(m, m, packed=True))
    matrix = reference_fci_matrix(active, n_occupied, n_occupied)
    return float(np.linalg.eigvalsh(isometry.T @ matrix @ isometry)[0])


def test_cached_even_tables_are_read_only_and_serve_every_hamiltonian_of_a_shape():
    """Two Hamiltonians of one shape, solved around a solve of another
    shape, each reach the dense oracle's energy from the same cached
    tables, which no solve can write."""
    rng = np.random.default_rng(24)
    first, second = random_active_hamiltonian(rng, 4), random_active_hamiltonian(rng, 4)
    other = random_active_hamiltonian(rng, 5)
    for active in (first, other, second, first):
        n_occupied = active.n_orbitals // 2
        result = fci_solve(active, n_electrons=2 * n_occupied, s_z=0.0)
        assert result.ground_energy == pytest.approx(_lowest_even_energy(active, n_occupied), abs=1e-10)
    space = fci._string_space(4, 2, 2)
    tables = space.tables
    assert fci._string_space(4, 2, 2).tables is tables
    basis = tables.basis
    arrays = [space.pairs, tables.first, tables.second, tables.alpha_index, tables.alpha_sign, tables.beta_sign]
    for array in arrays + [basis.upper, basis.mirror, basis.index, basis._unpack_scale, basis._pack_scale]:
        assert array.flags.writeable is False
        with pytest.raises(ValueError):
            array.flat[0] = 0


def test_even_operator_and_its_matvec_copy_no_index_table():
    """Building the spin-flip-even operator of H8's (8e,8o) shape holds
    its buffers and less than one index table more, and a matvec
    allocates less than one index table: the gathers read the cached
    tables themselves, not per-solve or per-call copies."""
    space = fci._string_space(8, 4, 4)
    tables = space.tables  # compiled here, before the operator is measured
    k, eri = fci._integrals(random_active_hamiltonian(np.random.default_rng(26), 8))
    x = np.random.default_rng(27).normal(size=tables.basis.dimension)
    n_pairs, padded = len(space.pairs), tables.batches * tables.rows
    width = n_pairs + 1
    # x~, D+ (which the sigma gather reuses), G and the pair-space weights
    buffers = 8 * (
        2 * tables.basis.dimension + 1
        + max(padded * n_pairs, tables.alpha_index.size)
        + padded * width
        + n_pairs * width
    )
    table = tables.first.nbytes
    tracemalloc.start()
    try:
        operator = fci._hamiltonian_operator(space, k, eri)
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        operator(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert held - buffers < table
    assert peak - held < table


def _space_arrays(space) -> list[np.ndarray]:
    """Every array a cached string space holds, the operator tables a
    solve compiled onto it and their basis included (a KeyError if no
    solve has)."""
    tables = vars(space)["tables"]
    holders = [space, space.alpha, space.beta, tables.basis]
    arrays = [value for value in tables if isinstance(value, np.ndarray)]
    for holder in holders:
        arrays += [value for value in vars(holder).values() if isinstance(value, np.ndarray)]
    return arrays


def test_solves_leave_the_cached_spaces_bitwise_unchanged(h2o_integrals, lih_integrals):
    """Solves and 1-RDMs of fixture and random Hamiltonians, S_z != 0
    sectors included, leave every array of the cached string spaces
    read-only and bitwise as it was after the first solve of its shape."""
    rng = np.random.default_rng(28)
    cases = [
        (reduce_integrals(h2o_integrals, solve_rhf(h2o_integrals), ActiveSpaceSpec(10, 7)), {}),
        (reduce_integrals(lih_integrals, solve_rhf(lih_integrals), ActiveSpaceSpec(4, 6)), {}),
        (random_active_hamiltonian(rng, 4), dict(n_electrons=4)),
        (random_active_hamiltonian(rng, 4), dict(n_electrons=4, s_z=1.0)),
        (random_active_hamiltonian(rng, 5), dict(n_electrons=3, s_z=-0.5)),
    ]
    shapes = [(7, 5, 5), (6, 2, 2), (4, 2, 2), (4, 3, 1), (5, 1, 2)]
    fci._string_space.cache_clear()
    for active, sector in cases:
        fci_solve(active, **sector)
    spaces = [fci._string_space(*shape) for shape in shapes]
    before = [[array.tobytes() for array in _space_arrays(space)] for space in spaces]
    for active, sector in cases + [(random_active_hamiltonian(rng, 4), dict(n_electrons=4))]:
        compute_1rdm(fci_solve(active, **sector))
    for shape, space, expected in zip(shapes, spaces, before):
        assert fci._string_space(*shape) is space
        arrays = _space_arrays(space)
        assert [array.tobytes() for array in arrays] == expected
        assert not any(array.flags.writeable for array in arrays)


def _occupation_state(result) -> Statevector:
    """An FCI ground vector on the 2n occupation-basis modes, alpha string
    in the low n bits and beta string in the high ones."""
    n = result.n_orbitals
    amps = np.zeros(4**n, dtype=np.complex128)
    index = np.array(result.alpha_strings)[:, None] | (np.array(result.beta_strings)[None, :] << n)
    amps[index.ravel()] = result.ground_vector
    return Statevector(2 * n, amps)


def test_concurrent_even_solves_share_the_tables():
    """Threads that mix solves, 1-RDMs and VQE densities of the shapes
    (5, 2, 2) and (5, 3, 2) at once, from one cold cache and with
    frequent thread switches, get bitwise the serial results: they share
    only the read-only cached string spaces, not the buffers, and race
    both the spaces' construction and their first solve's table compile."""
    rng = np.random.default_rng(25)
    hamiltonians = [random_active_hamiltonian(rng, 5) for _ in range(4)]
    calls = []
    for active in hamiltonians:
        for sector in (dict(n_electrons=4), dict(n_electrons=5, s_z=0.5)):
            result = fci_solve(active, **sector)
            calls += [
                functools.partial(fci_solve, active, **sector),
                functools.partial(compute_1rdm, result),
                functools.partial(spin_summed_one_rdm, _occupation_state(result), 5),
            ]
    calls *= 3
    serial = [call() for call in calls]
    fci._string_space.cache_clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(call) for call in calls]
            results = [future.result(timeout=120) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    for result, expected in zip(results, serial):
        if isinstance(expected, fci.FciResult):
            assert result.ground_energy == expected.ground_energy
            np.testing.assert_array_equal(result.ground_vector, expected.ground_vector)
            np.testing.assert_array_equal(result.one_rdm, expected.one_rdm)
        else:
            np.testing.assert_array_equal(result, expected)
    for shape in ((5, 2, 2), (5, 3, 2)):
        assert "tables" in vars(fci._string_space(*shape))


def test_operator_tables_are_compiled_on_a_shapes_first_solve(monkeypatch):
    """A fresh (5, 3, 2) shape read only for 1-RDMs, through its string
    space and through the VQE density of an occupation state, holds no
    operator tables; its first solve compiles them once onto the cached
    space, and a second solve reuses that object."""
    compiled = []
    compile_tables = fci._compile_tables
    monkeypatch.setattr(fci, "_compile_tables", lambda space: compiled.append(space) or compile_tables(space))
    fci._string_space.cache_clear()
    rng = np.random.default_rng(29)
    space = fci._string_space(5, 3, 2)
    vector = rng.normal(size=space.dimension)
    amps = np.zeros(4**5, dtype=np.complex128)
    amps[(space.alpha.strings[:, None] | (space.beta.strings[None, :] << 5)).ravel()] = vector
    np.testing.assert_array_equal(spin_summed_one_rdm(Statevector(10, amps), 5), space.one_rdm(vector))
    assert fci._string_space(5, 3, 2) is space
    assert "tables" not in vars(space) and compiled == []
    active = random_active_hamiltonian(rng, 5)
    first = fci_solve(active, n_electrons=5, s_z=0.5)
    assert fci._string_space(5, 3, 2) is space and compiled == [space]
    tables = vars(space)["tables"]
    second = fci_solve(active, n_electrons=5, s_z=0.5)
    assert space.tables is tables and compiled == [space]
    assert second.ground_energy == first.ground_energy
    np.testing.assert_array_equal(second.ground_vector, first.ground_vector)


@given(even_sectors())
@settings(max_examples=60, deadline=None)
def test_spin_flip_even_packing_is_an_isometry(case):
    _, _, space, basis, x = case
    m = space.shape[0]
    assert basis.dimension == m * (m + 1) // 2
    c = basis.unpack(x)
    np.testing.assert_array_equal(c.reshape(m, m), c.reshape(m, m).T)
    assert np.linalg.norm(c) == pytest.approx(1.0, abs=1e-14)
    np.testing.assert_allclose(basis.pack(c), x, rtol=0, atol=1e-15)
    isometry = _even_isometry(basis)
    np.testing.assert_allclose(isometry.T @ isometry, np.eye(basis.dimension), rtol=0, atol=1e-15)
    y = np.random.default_rng(m).normal(size=m * m)  # pack is P^T on any vector
    np.testing.assert_allclose(basis.pack(y), isometry.T @ y, rtol=0, atol=1e-14)


def test_even_sector_shares_one_table_and_its_one_rdm_matches_the_oracle():
    active = random_active_hamiltonian(np.random.default_rng(58), 4)
    result = fci_solve(active, n_electrons=4, s_z=0.0)
    space = fci._string_space(4, 2, 2)
    assert space.beta is space.alpha
    np.testing.assert_allclose(
        result.one_rdm,
        reference_fci_one_rdm(4, 2, 2, result.ground_vector),
        rtol=0,
        atol=1e-12,
    )


def test_davidson_replaces_a_correction_already_in_the_subspace():
    """A 3x3 problem whose second correction lies in the span of the first
    two basis vectors: the solve must add the residual instead, without a
    division by a vanishing norm, and finish exactly."""
    cos, sin, h1, h2 = 0.6, 0.8, 1.0, 2.0
    matrix = np.array([[0.0, 1.0, 1.0], [1.0, h1, 0.0], [1.0, 0.0, h2]])
    # the first correction is (0, cos, sin); the diagonal is chosen so that
    # the second, r / (diag - theta), is orthogonal to r, the one direction
    # the first two basis vectors miss
    theta = np.linalg.eigvalsh([[0.0, cos + sin], [cos + sin, cos**2 * h1 + sin**2 * h2]])[0]
    scale = theta / (cos + sin)
    diagonal = np.array([0.0, scale / cos, scale / sin])
    with np.errstate(all="raise"):
        energy, vector, matvecs, residual_norm = fci._davidson_ground(
            matrix.__matmul__, diagonal
        )
    assert energy == pytest.approx(np.linalg.eigvalsh(matrix)[0], abs=1e-12)
    assert matvecs == 3
    assert residual_norm < fci.DAVIDSON_TOLERANCE
    np.testing.assert_allclose(matrix @ vector, energy * vector, rtol=0, atol=1e-12)


def test_unconverged_davidson_raises_with_iterations_and_residual(monkeypatch):
    active = random_active_hamiltonian(np.random.default_rng(57), 4)
    monkeypatch.setattr(fci, "DAVIDSON_MAX_ITERATIONS", 1)
    with pytest.raises(FciConvergenceError, match=r"after 1 iterations: residual norm \d\.\d+e"):
        fci_solve(active, n_electrons=4, s_z=0.0)


def test_h2o_10e7o_davidson_matvec_budget(h2o_integrals):
    """H2O (10e,7o), 441 determinants: 13 matvecs when this budget was set,
    against 91 for Lanczos from the same start."""
    mf = solve_rhf(h2o_integrals)
    active = reduce_integrals(h2o_integrals, mf, ActiveSpaceSpec(10, 7))
    result = fci_solve(active)
    assert result.basis_dimension == 441
    assert 1 <= result.matvecs <= 20
    assert result.residual_norm < fci.DAVIDSON_TOLERANCE


def test_h8_8e8o_embedding_matches_reference_within_matvec_budget(monkeypatch):
    """H8 (8e,8o), 4900 determinants: the FCI embedding's one solve took 23
    matvecs when this budget was set, on the spin-flip-even half."""
    reference = json.loads((BENCH_DATA / "references.json").read_text())["h8_8e8o"]
    results = []

    def recording_solve(active):
        results.append(fci_solve(active))
        return results[-1]

    monkeypatch.setattr(embedding, "fci_solve", recording_solve)
    state = embedding.run_embedding(
        read_fcidump(BENCH_DATA / reference["file"]),
        ActiveSpaceSpec(*reference["active"]),
        embedding.EmbeddingConfig(active_solver="fci"),
    )
    assert state.converged
    assert state.final_energy == pytest.approx(reference["e_total"], abs=1e-8)
    assert [result.basis_dimension for result in results] == [reference["fci_dimension"]]
    assert 1 <= results[0].matvecs <= 23
    assert results[0].residual_norm < fci.DAVIDSON_TOLERANCE


@pytest.mark.parametrize("molecule, spec", [("h2o", (10, 7)), ("h2o", (8, 6)), ("lih", (4, 6))])
def test_davidson_matches_lanczos_on_fixture_spaces(request, molecule, spec):
    integrals = request.getfixturevalue(f"{molecule}_integrals")
    active = reduce_integrals(integrals, solve_rhf(integrals), ActiveSpaceSpec(*spec))
    result = fci_solve(active)
    half = active.n_electrons // 2
    matrix = reference_fci_matrix(active, half, half)
    oracle_energy, oracle_vector = reference_lanczos_ground(matrix.__matmul__, len(matrix))
    assert result.ground_energy == pytest.approx(oracle_energy, abs=1e-12)
    assert abs(oracle_vector @ result.ground_vector) >= 1 - 1e-12
