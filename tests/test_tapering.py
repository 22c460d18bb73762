"""Z2 symmetry detection and sector tapering soundness."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcembed import tapering
from qcembed.activespace import ActiveHamiltonian
from qcembed.fermion import spin_orbital_hamiltonian
from qcembed.integrals import SymmetricTwoBody
from qcembed.mappings import map_jordan_wigner
from qcembed.pauli import PauliString, PauliSum
from qcembed.sim import map_active_hamiltonian
from qcembed.tapering import find_z2_symmetries, taper_all_sectors

from oracles import pauli_sum_matrix, reference_symmetry_radical
from test_hamiltonian_map import random_symmetric_active


def sorted_spectrum(op: PauliSum) -> np.ndarray:
    return np.sort(np.linalg.eigvalsh(pauli_sum_matrix(op)))


def union_of_sector_spectra(op: PauliSum) -> np.ndarray:
    values = []
    for result in taper_all_sectors(op):
        tapered = result.tapered_operator
        if tapered.n_qubits == 0:
            coeff = tapered.coefficient(PauliString.identity(0))
            values.append(float(coeff.real))
        else:
            values.extend(np.linalg.eigvalsh(pauli_sum_matrix(tapered)))
    return np.sort(np.asarray(values))


def h2_qubit_hamiltonian():
    two = SymmetricTwoBody(2)
    two.set(0, 0, 0, 0, 0.6757101663239907)
    two.set(1, 1, 1, 1, 0.6985737290987852)
    two.set(0, 0, 1, 1, 0.6645817383704627)
    two.set(0, 1, 0, 1, 0.1809311961858456)
    h = np.array([[-1.2563391034684398, 0.0], [0.0, -0.4718959826277053]])
    active = ActiveHamiltonian(2, 2, 0.0, h, two)
    return map_jordan_wigner(spin_orbital_hamiltonian(active))


def test_zz_single_generator_two_sectors():
    op = PauliSum.from_label_dict({"ZZ": 1.0})
    syms = find_z2_symmetries(op)
    assert syms.n_generators == 1
    assert syms.generators[0].label == "ZZ"
    sector_values = {}
    for sector, tapered in syms.all_sectors():
        assert tapered.n_qubits == 1
        eigs = np.linalg.eigvalsh(pauli_sum_matrix(tapered))
        sector_values[sector] = np.round(eigs, 12).tolist()
    assert sector_values[(1,)] == [1.0, 1.0]
    assert sector_values[(-1,)] == [-1.0, -1.0]
    union = union_of_sector_spectra(op)
    assert np.allclose(union, sorted_spectrum(op), atol=1e-12)


def test_single_x_term_excludes_z0_generators():
    op = PauliSum.from_label_dict({"XI": 1.0})
    syms = find_z2_symmetries(op)
    for generator in syms.generators:
        assert not (generator.z_mask & 1), f"generator {generator.label} anticommutes with X0"


def test_generators_commute_with_hamiltonian_and_each_other():
    op = h2_qubit_hamiltonian()
    syms = find_z2_symmetries(op)
    assert syms.n_generators > 0
    for generator in syms.generators:
        for string, _ in op:
            assert generator.commutes_with(string)
        for other in syms.generators:
            assert generator.commutes_with(other)


def test_h2_tapering_counts_and_ground_energy():
    op = h2_qubit_hamiltonian()
    syms = find_z2_symmetries(op)
    # Jordan-Wigner H2 on 4 qubits is known to taper to a single qubit
    assert syms.n_generators == 3
    results = taper_all_sectors(op)
    assert all(r.qubit_count_after == r.qubit_count_before - syms.n_generators for r in results)

    full_ground = sorted_spectrum(op)[0]
    sector_grounds = []
    for result in results:
        tapered = result.tapered_operator
        if tapered.n_qubits == 0:
            sector_grounds.append(float(tapered.coefficient(PauliString.identity(0)).real))
        else:
            sector_grounds.append(float(np.linalg.eigvalsh(pauli_sum_matrix(tapered))[0]))
    assert min(sector_grounds) == pytest.approx(full_ground, abs=1e-10)


def test_h2_union_of_sectors_equals_spectrum():
    op = h2_qubit_hamiltonian()
    assert np.allclose(union_of_sector_spectra(op), sorted_spectrum(op), atol=1e-10)


def _random_symmetric_pauli_sum(rng: np.random.Generator, n_qubits: int) -> PauliSum:
    """Random Hermitian sum with a planted Z-type symmetry."""
    planted = 0
    while planted == 0:
        planted = int(rng.integers(1, 2**n_qubits))
    terms = {}
    for _ in range(int(rng.integers(3, 10))):
        while True:
            x = int(rng.integers(0, 2**n_qubits))
            z = int(rng.integers(0, 2**n_qubits))
            # keep only terms commuting with the planted Z-string
            if (x & planted).bit_count() % 2 == 0:
                break
        string = PauliString(n_qubits, x, z)
        terms[string] = terms.get(string, 0.0) + float(rng.normal())
    return PauliSum(n_qubits, terms)


def test_random_planted_symmetry_spectrum_preserved():
    rng = np.random.default_rng(31)
    checked = 0
    for _ in range(20):
        n_qubits = int(rng.integers(2, 6))
        op = _random_symmetric_pauli_sum(rng, n_qubits)
        if op.is_zero:
            continue
        syms = find_z2_symmetries(op)
        if syms.n_generators == 0:
            continue
        assert np.allclose(union_of_sector_spectra(op), sorted_spectrum(op), atol=1e-10)
        checked += 1
    assert checked >= 10


@given(
    seed=st.integers(0, 2**32 - 1),
    n_orbitals=st.integers(1, 3),
    mapping=st.sampled_from(["jordan-wigner", "parity"]),
)
@settings(max_examples=40, deadline=None)
def test_union_of_sector_spectra_is_full_spectrum_of_random_active_hamiltonians(
    seed, n_orbitals, mapping
):
    active = random_symmetric_active(np.random.default_rng(seed), n_orbitals, n_orbitals)
    # the unreduced map does not depend on the sector, but it must be one: an odd count needs 2S_z odd
    op = map_active_hamiltonian(active, n_orbitals % 2, mapping=mapping, two_qubit_reduced=False)
    union = union_of_sector_spectra(op)
    assert len(union) == 2**op.n_qubits
    assert np.allclose(union, sorted_spectrum(op), rtol=0, atol=1e-10)


@st.composite
def operators_with_planted_symmetry(draw):
    """Random Pauli sums; half of them commute with a planted Z-string."""
    n = draw(st.integers(1, 6))
    full = 2**n - 1
    planted = draw(st.one_of(st.just(0), st.integers(1, full)))
    terms = {}
    for x, z in draw(st.lists(st.tuples(st.integers(0, full), st.integers(0, full)), max_size=12)):
        if (x & planted).bit_count() % 2:
            x ^= planted & -planted  # flip the X on the planted string's lowest qubit
        terms[PauliString(n, x, z)] = draw(st.floats(0.1, 2.0))
    return PauliSum(n, terms)


@given(operators_with_planted_symmetry())
@settings(max_examples=300, deadline=None)
def test_generators_and_pivots_match_the_intersection_route(op):
    syms = find_z2_symmetries(op)
    with mock.patch.object(tapering, "_symmetry_radical", reference_symmetry_radical):
        reference = find_z2_symmetries(op)
    assert syms.generators == reference.generators
    assert syms._pivot_qubits == reference._pivot_qubits
    assert syms._pivot_paulis == reference._pivot_paulis
    for sector, tapered in syms.all_sectors():
        assert tapered == reference.taper(sector)


def test_empty_generator_set_is_valid():
    # X0, Z0 and their product leave no commuting non-identity subgroup
    op = PauliSum.from_label_dict({"X": 1.0, "Z": 0.5, "Y": 0.25})
    syms = find_z2_symmetries(op)
    assert syms.n_generators == 0
    sectors = list(syms.all_sectors())
    assert len(sectors) == 1
    assert sectors[0][1].allclose(op, tol=0)


def test_sector_of_occupation_z_type():
    op = h2_qubit_hamiltonian()
    syms = find_z2_symmetries(op)
    # HF determinant of H2 under Jordan-Wigner: modes 0 (alpha) and 2 (beta)
    labels = syms.sector_of_occupation(0b0101)
    tapered = syms.taper(labels)
    hf_energy = None
    full = pauli_sum_matrix(op)
    hf_energy = float(np.real(full[0b0101, 0b0101]))
    eigs = np.linalg.eigvalsh(pauli_sum_matrix(tapered))
    # the sector containing the HF state also contains the true ground state
    assert eigs[0] == pytest.approx(sorted_spectrum(op)[0], abs=1e-10)
    assert eigs[0] <= hf_energy + 1e-12
