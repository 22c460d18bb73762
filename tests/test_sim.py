"""Statevector primitives and UCCSD ansatz against dense oracles."""

import dataclasses

import numpy as np
import pytest

from qcembed.fermion import FermionOperator
from qcembed.mappings import map_jordan_wigner
from qcembed.pauli import PauliString, PauliSum
from qcembed.sim import (
    SimulationError,
    Statevector,
    apply_pauli,
    apply_pauli_exponential,
    build_uccsd_ansatz,
    evolve_ansatz,
    expectation,
    hf_state,
    lift_reduced_parity_state,
    spin_summed_one_rdm,
    uccsd_excitations,
)

from oracles import pauli_exponential_matrix, pauli_label_matrix, pauli_sum_matrix


def random_state(rng, n):
    amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    amps /= np.linalg.norm(amps)
    return Statevector(n, amps)


def test_hf_state_examples():
    assert hf_state(2, "00").amplitudes[0] == 1.0
    state = hf_state(2, "10")  # character 0 = qubit 0 -> index 1
    assert state.amplitudes[1] == 1.0
    assert hf_state(3, 0b101).amplitudes[0b101] == 1.0
    for bits in ("00", "10", "01", "11"):
        assert hf_state(2, bits).norm() == 1.0


def test_hf_state_length_mismatch():
    with pytest.raises(SimulationError, match="bits"):
        hf_state(3, "01")


def test_apply_pauli_matches_dense():
    rng = np.random.default_rng(41)
    for _ in range(25):
        n = int(rng.integers(1, 6))
        label = "".join(rng.choice(list("IXYZ")) for _ in range(n))
        state = random_state(rng, n)
        out = apply_pauli(state, PauliString.from_label(label))
        expected = pauli_label_matrix(label) @ state.amplitudes
        assert np.allclose(out.amplitudes, expected, atol=1e-13)


def test_pauli_exponential_angle_zero_is_identity():
    state = hf_state(3, "101")
    out = apply_pauli_exponential(state, PauliString.from_label("XYZ"), 0.0)
    assert np.array_equal(out.amplitudes, state.amplitudes)


def test_pauli_exponential_z_phase_on_zero_state():
    theta = 0.7321
    state = hf_state(1, "0")
    out = apply_pauli_exponential(state, PauliString.from_label("Z"), theta)
    assert np.allclose(out.amplitudes[0], np.exp(1j * theta), atol=1e-14)
    # expectation values are unchanged by the global phase
    op = PauliSum.from_label_dict({"Z": 1.0})
    assert expectation(out, op) == pytest.approx(expectation(state, op), abs=1e-14)


def test_pauli_exponential_matches_matrix_exponential():
    rng = np.random.default_rng(42)
    for _ in range(15):
        n = 4
        label = "".join(rng.choice(list("IXYZ")) for _ in range(n))
        angle = float(rng.uniform(-2, 2))
        state = random_state(rng, n)
        out = apply_pauli_exponential(state, PauliString.from_label(label), angle)
        expected = pauli_exponential_matrix(label, angle) @ state.amplitudes
        assert np.allclose(out.amplitudes, expected, atol=1e-12)
        assert out.norm() == pytest.approx(1.0, abs=1e-10)


def test_expectation_examples():
    zeros = hf_state(3, "000")
    assert expectation(zeros, PauliSum.from_label_dict({"ZII": 1.0})) == pytest.approx(1.0)
    plus = Statevector(1, np.array([1.0, 1.0]) / np.sqrt(2))
    assert expectation(plus, PauliSum.from_label_dict({"X": 1.0})) == pytest.approx(1.0)


def test_expectation_matches_dense_quadratic_form():
    rng = np.random.default_rng(43)
    n = 5
    state = random_state(rng, n)
    labels = {"".join(rng.choice(list("IXYZ")) for _ in range(n)): float(rng.normal()) for _ in range(12)}
    op = PauliSum.from_label_dict(labels)
    dense = pauli_sum_matrix(op)
    expected = np.real(np.vdot(state.amplitudes, dense @ state.amplitudes))
    assert expectation(state, op) == pytest.approx(expected, abs=1e-12)


def test_expectation_rejects_non_hermitian():
    state = hf_state(1, "0")
    op = PauliSum.from_label_dict({"Z": 1.0j})
    with pytest.raises(SimulationError, match="imaginary"):
        expectation(state, op)


def test_uccsd_counts_2e2o():
    excitations = uccsd_excitations(2, 1, 1)
    singles = [e for e in excitations if len(e) == 2]
    doubles = [e for e in excitations if len(e) == 4]
    assert len(singles) == 2
    assert len(doubles) == 1
    assert len(excitations) == 3


def test_uccsd_counts_2e1o_empty():
    assert uccsd_excitations(1, 1, 1) == []
    ansatz = build_uccsd_ansatz(1, 2)
    assert ansatz.n_parameters == 0


def test_uccsd_counts_4e6o():
    excitations = uccsd_excitations(6, 2, 2)
    singles = [e for e in excitations if len(e) == 2]
    doubles = [e for e in excitations if len(e) == 4]
    assert len(singles) == 16
    assert len(doubles) == 76
    assert len(excitations) == 92
    same_spin = [d for d in doubles if (d[0] < 6) == (d[1] < 6)]
    assert len(same_spin) == 12  # 6 alpha-alpha + 6 beta-beta


def test_uccsd_excitations_conserve_spin_and_particles():
    for exc in uccsd_excitations(4, 2, 1):
        if len(exc) == 2:
            i, a = exc
            assert (i < 4) == (a < 4)
        else:
            i, j, a, b = exc
            assert sorted(x < 4 for x in (i, j)) == sorted(x < 4 for x in (a, b))


def test_evolve_zero_parameters_returns_reference():
    ansatz = build_uccsd_ansatz(2, 2)
    state = evolve_ansatz(ansatz, np.zeros(ansatz.n_parameters))
    assert state.amplitudes[ansatz.reference_index] == pytest.approx(1.0)


def test_evolve_norm_preserved_random_parameters():
    rng = np.random.default_rng(44)
    ansatz = build_uccsd_ansatz(3, 2)
    for _ in range(5):
        theta = rng.uniform(-0.8, 0.8, size=ansatz.n_parameters)
        state = evolve_ansatz(ansatz, theta)
        assert state.norm() == pytest.approx(1.0, abs=1e-10)


def test_single_excitation_overlap_cosine_profile():
    # one alpha electron in two orbitals: a single excitation, exact rotation
    ansatz = build_uccsd_ansatz(2, 2, mapping="jordan-wigner", two_qubit_reduced=False)
    single_index = next(k for k, e in enumerate(ansatz.excitations) if len(e) == 2)
    reference = hf_state(ansatz.n_qubits, ansatz.reference_index)
    overlaps = []
    for theta in np.linspace(0.0, np.pi / 2, 7):
        params = np.zeros(ansatz.n_parameters)
        params[single_index] = theta
        state = evolve_ansatz(ansatz, params)
        overlap = abs(np.vdot(reference.amplitudes, state.amplitudes))
        assert overlap == pytest.approx(abs(np.cos(theta)), abs=1e-10)
        overlaps.append(overlap)
    assert all(a >= b - 1e-12 for a, b in zip(overlaps, overlaps[1:]))


def test_particle_number_conserved_through_evolution():
    ansatz = build_uccsd_ansatz(2, 2, mapping="jordan-wigner", two_qubit_reduced=False)
    number_op = FermionOperator(4, {((k, True), (k, False)): 1.0 for k in range(4)})
    mapped_number = map_jordan_wigner(number_op)
    rng = np.random.default_rng(45)
    for _ in range(4):
        theta = rng.uniform(-0.5, 0.5, size=ansatz.n_parameters)
        state = evolve_ansatz(ansatz, theta)
        assert expectation(state, mapped_number) == pytest.approx(2.0, abs=1e-10)


@pytest.mark.parametrize("real_part", [2e-10, 0.5])
def test_ansatz_rejects_generator_with_real_coefficient(real_part):
    base = build_uccsd_ansatz(2, 2)
    bad = PauliSum.from_label_dict({"XY": 0.5j, "YX": real_part - 0.5j})
    with pytest.raises(SimulationError, match="anti-Hermitian"):
        dataclasses.replace(base, generators=(bad,) + base.generators[1:])


def test_ansatz_accepts_real_residue_below_tolerance():
    base = build_uccsd_ansatz(2, 2)
    nearly = PauliSum.from_label_dict({"XY": 0.5j, "YX": 5e-11 - 0.5j})
    ansatz = dataclasses.replace(base, generators=(nearly,) + base.generators[1:])
    assert ansatz.n_parameters == base.n_parameters


def test_parameter_length_mismatch():
    ansatz = build_uccsd_ansatz(2, 2)
    with pytest.raises(SimulationError, match="parameters"):
        evolve_ansatz(ansatz, np.zeros(ansatz.n_parameters + 1))


def test_lift_reduced_parity_state_roundtrip_hf():
    # the reduced reference lifts to the occupation-basis HF determinant
    for n_spatial, n_alpha, n_beta in ((2, 1, 1), (3, 2, 2), (3, 1, 1)):
        ansatz = build_uccsd_ansatz(n_spatial, n_alpha + n_beta)
        reduced = hf_state(ansatz.n_qubits, ansatz.reference_index)
        lifted = lift_reduced_parity_state(reduced, n_spatial, n_alpha, n_beta)
        occupation = 0
        for k in range(n_alpha):
            occupation |= 1 << k
        for k in range(n_beta):
            occupation |= 1 << (n_spatial + k)
        assert lifted.amplitudes[occupation] == pytest.approx(1.0)


def test_spin_summed_one_rdm_on_determinant():
    # single determinant: gamma = diag(2) on the occupied spatial orbital
    n_spatial = 2
    occupation = 0b0101  # alpha 0 and beta 0 occupied
    state = hf_state(2 * n_spatial, occupation)
    gamma = spin_summed_one_rdm(state, n_spatial)
    assert np.allclose(gamma, np.diag([2.0, 0.0]), atol=1e-12)


def test_spin_summed_one_rdm_matches_oracle():
    from oracles import brute_force_ground_energy, brute_force_one_rdm, random_active_hamiltonian

    rng = np.random.default_rng(46)
    active = random_active_hamiltonian(rng, 2)
    energy, vector, fock_indices = brute_force_ground_energy(active, 1, 1)
    dense_amps = np.zeros(2**4, dtype=complex)
    dense_amps[fock_indices] = vector
    state = Statevector(4, dense_amps)
    gamma = spin_summed_one_rdm(state, 2)
    expected = brute_force_one_rdm(vector, fock_indices, 2)
    assert np.allclose(gamma, expected, atol=1e-10)
    assert np.trace(gamma) == pytest.approx(2.0, abs=1e-10)
