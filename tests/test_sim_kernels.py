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

from qcembed.pauli import PauliString, PauliSum
from qcembed.sim import (
    SimulationError,
    Statevector,
    apply_pauli,
    apply_pauli_exponential,
    build_uccsd_ansatz,
    evolve_ansatz,
    expectation,
    lift_reduced_parity_state,
)

from oracles import (
    reference_evolve,
    reference_expectation,
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
