"""Compiled Pauli kernels against the per-call bitmask reference.

A single compiled string reproduces the reference arithmetic exactly,
so those comparisons are bitwise.  The fused kernels change the order
of the arithmetic by design: an ansatz applies each generator as one
closed-form rotation instead of one exponential per string, and
``expectation`` sums a Pauli sum grouped by X-mask instead of term by
term.  Those are compared with the same references to 1e-12.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcembed import vqe
from qcembed.activespace import ActiveSpaceSpec, reduce_integrals
from qcembed.integrals import read_fcidump
from qcembed.meanfield import solve_rhf
from qcembed.pauli import PauliString, PauliSum
from qcembed.sim import (
    SimulationError,
    Statevector,
    _evolve_rows,
    _expectation_rows,
    apply_pauli,
    apply_pauli_exponential,
    build_uccsd_ansatz,
    evolve_ansatz,
    expectation,
    hf_state,
    lift_reduced_parity_state,
    map_active_hamiltonian,
)

from conftest import FIXTURE_DIR
from oracles import (
    reference_evolve,
    reference_expectation,
    reference_grouped_expectation,
    reference_lift_reduced_parity_state,
    reference_pauli_action,
    reference_pauli_exponential,
)

SEEDS = st.integers(0, 2**32 - 1)


def assert_bitwise(actual: np.ndarray, expected: np.ndarray):
    assert actual.dtype == expected.dtype and actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


def random_amplitudes(seed: int, n_qubits: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.normal(size=2**n_qubits) + 1j * rng.normal(size=2**n_qubits)


@st.composite
def pauli_strings(draw, n_qubits):
    full = 2**n_qubits - 1
    return PauliString(n_qubits, draw(st.integers(0, full)), draw(st.integers(0, full)))


@st.composite
def strings_and_states(draw):
    n = draw(st.integers(1, 8))
    return draw(pauli_strings(n)), random_amplitudes(draw(SEEDS), n)


@given(strings_and_states())
@settings(max_examples=200, deadline=None)
def test_compiled_action_is_bitwise_reference(case):
    pauli, amps = case
    out = apply_pauli(Statevector(pauli.n_qubits, amps), pauli)
    assert_bitwise(out.amplitudes, reference_pauli_action(amps, pauli))


@given(strings_and_states(), st.one_of(st.just(0.0), st.floats(-np.pi, np.pi)))
@settings(max_examples=200, deadline=None)
def test_compiled_exponential_is_bitwise_reference(case, angle):
    pauli, amps = case
    out = apply_pauli_exponential(Statevector(pauli.n_qubits, amps), pauli, angle)
    assert_bitwise(out.amplitudes, reference_pauli_exponential(amps, pauli, angle))


@st.composite
def operators_and_states(draw):
    n = draw(st.integers(1, 8))
    strings = draw(st.lists(pauli_strings(n), min_size=1, max_size=12))
    coefficients = draw(
        st.lists(st.floats(-2.0, 2.0), min_size=len(strings), max_size=len(strings))
    )
    op = PauliSum.from_terms(n, zip(strings, coefficients))
    return op, random_amplitudes(draw(SEEDS), n)


@given(operators_and_states())
@settings(max_examples=150, deadline=None)
def test_grouped_expectation_matches_reference(case):
    op, amps = case
    state = Statevector(op.n_qubits, amps)
    expected = reference_expectation(amps, op).real
    # relative to the largest value the terms can reach
    scale = sum(abs(coeff) for _, coeff in op) * np.vdot(amps, amps).real
    assert abs(expectation(state, op) - expected) <= 1e-12 * max(scale, 1.0)
    # the second call reads the table the first one built
    assert expectation(state, op) == expectation(state, op)


ANSATZ_SHAPES = (
    # (n_spatial, n_electrons, spin_2ms, mapping, two_qubit_reduced)
    (2, 2, 0, "parity", True),
    (3, 2, 0, "parity", True),
    (3, 3, 1, "parity", True),
    (4, 4, 0, "parity", True),
    (2, 2, 0, "jordan-wigner", False),
    (3, 2, 0, "jordan-wigner", False),
    (3, 4, 0, "parity", False),
    (6, 8, 0, "parity", True),  # (8e,6o): 10 qubits, 92 parameters
)


@pytest.fixture(scope="module")
def ansatze():
    return [
        build_uccsd_ansatz(m, ne, spin_2ms=ms2, mapping=mapping, two_qubit_reduced=reduced)
        for m, ne, ms2, mapping, reduced in ANSATZ_SHAPES
    ]


def random_parameters(ansatz, seed: int, zero_fraction: float) -> np.ndarray:
    rng = np.random.default_rng(seed)
    theta = rng.uniform(-np.pi, np.pi, size=ansatz.n_parameters)
    theta[rng.random(ansatz.n_parameters) < zero_fraction] = 0.0
    return theta


@given(
    which=st.integers(0, len(ANSATZ_SHAPES) - 1),
    seed=SEEDS,
    zero_fraction=st.sampled_from((0.0, 0.3, 0.7, 1.0)),
)
@settings(max_examples=60, deadline=None)
def test_evolve_ansatz_matches_reference(ansatze, which, seed, zero_fraction):
    ansatz = ansatze[which]
    theta = random_parameters(ansatz, seed, zero_fraction)
    difference = evolve_ansatz(ansatz, theta).amplitudes - reference_evolve(ansatz, theta)
    assert np.max(np.abs(difference)) <= 1e-12


def random_parameter_rows(ansatz, seed: int, n_rows: int) -> np.ndarray:
    """(n_rows, n_parameters) angles with scattered zeros and whole zero columns."""
    rng = np.random.default_rng(seed)
    thetas = rng.uniform(-np.pi, np.pi, size=(n_rows, ansatz.n_parameters))
    thetas[rng.random(thetas.shape) < 0.3] = 0.0
    thetas[:, rng.random(ansatz.n_parameters) < 0.2] = 0.0
    return thetas


def random_hermitian_sum(seed: int, n_qubits: int) -> PauliSum:
    rng = np.random.default_rng(seed)
    masks = rng.integers(0, 2**n_qubits, size=(int(rng.integers(1, 30)), 2))
    return PauliSum.from_terms(
        n_qubits, ((PauliString(n_qubits, int(x), int(z)), rng.normal()) for x, z in masks)
    )


# 17 rows is one more than the gradient block of the 10-qubit ansatz
@given(
    which=st.integers(0, len(ANSATZ_SHAPES) - 1),
    seed=SEEDS,
    n_rows=st.one_of(st.integers(0, 7), st.just(17)),
)
@settings(max_examples=60, deadline=None)
def test_row_kernels_are_bitwise_one_row_calls(ansatze, which, seed, n_rows):
    ansatz = ansatze[which]
    thetas = random_parameter_rows(ansatz, seed, n_rows)
    op = random_hermitian_sum(seed, ansatz.n_qubits)
    rows = _evolve_rows(ansatz, thetas)
    energies = _expectation_rows(rows, op)
    assert rows.shape == (n_rows, 2**ansatz.n_qubits) and energies.shape == (n_rows,)
    for theta, amps, energy in zip(thetas, rows, energies):
        state = evolve_ansatz(ansatz, theta)
        assert_bitwise(np.ascontiguousarray(amps), state.amplitudes)
        assert energy == expectation(state, op)
    # a row-major block of states gives the same energies
    assert_bitwise(_expectation_rows(np.ascontiguousarray(rows), op), energies)


# (n_spatial, n_electrons) of the H2 (2e,2o), LiH (2e,3o) and H2O (4e,4o) ansatze
FIXTURE_ANSATZ_SHAPES = {"h2": (2, 2), "lih": (3, 2), "h2o": (4, 4)}


@pytest.mark.parametrize("molecule", FIXTURE_ANSATZ_SHAPES)
def test_zero_parameters_give_the_reference_state_bitwise(molecule):
    ansatz = build_uccsd_ansatz(*FIXTURE_ANSATZ_SHAPES[molecule])
    state = evolve_ansatz(ansatz, np.zeros(ansatz.n_parameters))
    # tobytes also tells +0.0 from -0.0
    assert_bitwise(state.amplitudes, hf_state(ansatz.n_qubits, ansatz.reference_index).amplitudes)


@pytest.mark.parametrize("molecule", FIXTURE_ANSATZ_SHAPES)
def test_rows_mixing_zero_and_nonzero_angles_are_bitwise_one_row_calls(molecule):
    ansatz = build_uccsd_ansatz(*FIXTURE_ANSATZ_SHAPES[molecule])
    rng = np.random.default_rng(3)
    thetas = rng.uniform(-np.pi, np.pi, size=(5, ansatz.n_parameters))
    thetas[0] = 0.0  # every angle zero
    thetas[2, ::2] = 0.0  # every other angle zero
    thetas[3, 1:] = 0.0  # only the first angle nonzero
    thetas[:, -1] = 0.0  # one generator idle in every row
    rows = _evolve_rows(ansatz, thetas)
    for theta, amps in zip(thetas, rows):
        assert_bitwise(np.ascontiguousarray(amps), evolve_ansatz(ansatz, theta).amplitudes)
    reference = hf_state(ansatz.n_qubits, ansatz.reference_index).amplitudes
    assert_bitwise(np.ascontiguousarray(rows[0]), reference)


def test_expectation_rows_checks_every_row():
    op = PauliSum.from_label_dict({"ZI": 1j})  # not Hermitian: <a|op|a> = i <a|Z_0|a>
    amps = np.zeros((3, 4), dtype=np.complex128)
    amps[:2, :2] = np.sqrt(0.5)  # <Z_0> = 0 on the first two rows
    amps[2, 0] = 1.0  # <Z_0> = 1 on the last
    with pytest.raises(SimulationError, match="imaginary residue"):
        _expectation_rows(amps, op)


@given(which=st.integers(0, len(ANSATZ_SHAPES) - 1), seed=SEEDS)
@settings(max_examples=40, deadline=None)
def test_evolve_ansatz_preserves_norm(ansatze, which, seed):
    ansatz = ansatze[which]
    state = evolve_ansatz(ansatz, random_parameters(ansatz, seed, 0.0))
    assert abs(state.norm() - 1.0) <= 1e-12


def test_generator_with_mixed_x_masks_is_rejected():
    base = build_uccsd_ansatz(2, 2)
    # XY and XZ carry X-masks 0b11 and 0b01
    mixed = PauliSum.from_label_dict({"XY": 0.5j, "XZ": -0.5j})
    with pytest.raises(SimulationError, match="X-mask"):
        dataclasses.replace(base, generators=(mixed,) + base.generators[1:])


def test_generator_whose_square_is_not_a_projector_is_rejected():
    base = build_uccsd_ansatz(2, 2)
    # G = 0.3i XY has G^2 = -0.09, not 0 or -1
    scaled = PauliSum.from_label_dict({"XY": 0.3j})
    with pytest.raises(SimulationError, match="0 or -1"):
        dataclasses.replace(base, generators=(scaled,) + base.generators[1:])


@pytest.mark.parametrize("n_spatial, n_alpha, n_beta", [(3, 1, 1), (6, 4, 4)])
@pytest.mark.parametrize("seed", [0, 1])
def test_lift_reduced_parity_state_is_bitwise_reference(n_spatial, n_alpha, n_beta, seed):
    n_qubits = 2 * n_spatial - 2
    amps = random_amplitudes(seed, n_qubits)
    rng = np.random.default_rng(seed)
    amps[rng.random(2**n_qubits) < 0.3] = 0.0
    amps[rng.random(2**n_qubits) < 0.1] = -0.0 - 0.0j
    lifted = lift_reduced_parity_state(Statevector(n_qubits, amps), n_spatial, n_alpha, n_beta)
    expected = reference_lift_reduced_parity_state(amps, n_spatial, n_alpha, n_beta)
    assert_bitwise(lifted.amplitudes, expected)


# (fixture, active electrons, active orbitals): the VQE spaces of the benchmark
VQE_PROBLEMS = {"lih-2e3o": ("lih_sto3g.fcidump", 2, 3), "h2o-4e4o": ("h2o_sto3g.fcidump", 4, 4)}


@pytest.fixture(scope="module")
def vqe_problems():
    problems = {}
    for key, (name, n_electrons, n_orbitals) in VQE_PROBLEMS.items():
        integrals = read_fcidump(FIXTURE_DIR / name)
        active = reduce_integrals(integrals, solve_rhf(integrals), ActiveSpaceSpec(n_electrons, n_orbitals))
        ansatz = build_uccsd_ansatz(active.n_orbitals, active.n_electrons)
        problems[key] = (map_active_hamiltonian(active), ansatz)
    return problems


@pytest.mark.parametrize("key", VQE_PROBLEMS)
@pytest.mark.parametrize("seed", range(8))
def test_one_row_expectation_is_bitwise_the_group_loop_on_fixtures(vqe_problems, key, seed):
    hamiltonian, ansatz = vqe_problems[key]
    rows = _evolve_rows(ansatz, random_parameter_rows(ansatz, seed, 5))
    rows[0] = random_amplitudes(seed, ansatz.n_qubits)
    block = _expectation_rows(rows, hamiltonian)
    for amps, energy in zip(rows, block):
        amps = np.ascontiguousarray(amps)
        one_row = expectation(Statevector(ansatz.n_qubits, amps), hamiltonian)
        assert_bitwise(np.array(one_row), np.array(energy))
        assert_bitwise(np.array(one_row), np.array(reference_grouped_expectation(amps, hamiltonian)))
        expected = reference_expectation(amps, hamiltonian).real
        scale = sum(abs(coeff) for _, coeff in hamiltonian) * np.vdot(amps, amps).real
        assert abs(one_row - expected) <= 1e-12 * scale


@pytest.mark.parametrize("key", VQE_PROBLEMS)
@pytest.mark.parametrize("seed", [0, 7])
def test_vqe_trace_is_bitwise_under_the_group_loop(vqe_problems, key, seed, monkeypatch):
    hamiltonian, ansatz = vqe_problems[key]
    config = vqe.VqeConfig(seed=seed)
    result = vqe.minimize(hamiltonian, ansatz, config)
    looped_rows = []

    def group_loop_rows(amps, op):
        # every swept row goes through the group loop, one row at a time
        looped_rows.extend(amps)
        return np.array([reference_grouped_expectation(np.ascontiguousarray(row), op) for row in amps])

    monkeypatch.setattr(vqe, "_expectation_rows", group_loop_rows)
    looped = vqe.minimize(hamiltonian, ansatz, config)
    assert len(looped_rows) == looped.evaluations - looped.iterations
    assert result.evaluations == looped.evaluations
    assert_bitwise(np.array(result.trace), np.array(looped.trace))
    assert_bitwise(result.parameters, looped.parameters)
