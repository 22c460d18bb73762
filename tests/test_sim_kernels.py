"""Compiled Pauli kernels against the per-call bitmask reference.

A single compiled string reproduces the reference arithmetic exactly,
so those comparisons are bitwise, as are the X-mask table against the
term-by-term loop and the in-place rotation against the one-expression
rotation.  The row kernels run on float64 amplitudes and, where every
imaginary part is 0, float64 tables; they are compared bitwise with the
real part of the same arithmetic in complex128, whose imaginary part
must be exactly 0, up to the sign of a zero where numpy's complex
product differs from the real one.  The fused kernels change the order
of the arithmetic by design: an ansatz applies each generator as one
closed-form rotation instead of one exponential per string, and
``expectation`` sums a Pauli sum grouped by X-mask instead of term by
term.  Those are compared with the same references to 1e-12.
"""

import copy
import dataclasses
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qcembed import sim, vqe
from qcembed.activespace import ActiveSpaceSpec, reduce_integrals
from qcembed.integrals import read_fcidump
from qcembed.meanfield import solve_rhf
from qcembed.pauli import PauliString, PauliSum
from qcembed.sim import (
    SimulationError,
    Statevector,
    _apply_operator,
    _compile_generator,
    _evolve_rows,
    _expectation_rows,
    _grouped_operator,
    _row_dots,
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
    full_register_evolve_rows,
    full_register_expectation_rows,
    group_loop_apply_operator,
    group_loop_grouped_operator,
    reference_evolve,
    reference_evolve_rows,
    reference_expectation,
    reference_grouped_expectation,
    reference_grouped_operator,
    reference_lift_reduced_parity_state,
    reference_pauli_action,
    reference_pauli_exponential,
    unfolded_evolve_rows,
)

SEEDS = st.integers(0, 2**32 - 1)


def assert_bitwise(actual: np.ndarray, expected: np.ndarray):
    assert actual.dtype == expected.dtype and actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


def assert_bitwise_real(actual: np.ndarray, expected: np.ndarray):
    """Float64 ``actual`` is bitwise the real part of the complex
    ``expected``, whose imaginary part is exactly 0."""
    assert actual.dtype == np.float64 and expected.dtype == np.complex128
    assert not expected.imag.any()
    assert_bitwise(actual, expected.real)


def assert_real_part_of_complex_arithmetic(actual: np.ndarray, expected: np.ndarray):
    """Float64 ``actual`` is the real part of ``expected``, the same
    arithmetic run in complex128, whose imaginary part is exactly 0:
    bitwise at every nonzero entry and equal at the zeros.  numpy
    multiplies a complex by a real c as (a + ib)(c + i0), whose real part
    a c - b 0 turns a real -0 into +0 when b is -0, so only there does
    the sign of a zero tell the two apart."""
    assert actual.dtype == np.float64 and expected.dtype == np.complex128
    assert actual.shape == expected.shape
    assert not expected.imag.any()
    assert np.array_equal(actual, expected.real)
    nonzero = expected.real != 0
    assert actual[nonzero].tobytes() == expected.real[nonzero].tobytes()


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
    # every call compiles its own table, and the tables agree bitwise
    assert expectation(state, op) == expectation(state, op)


def assert_same_table(op: PauliSum):
    """The package's X-mask table of ``op`` is bitwise the term-by-term
    oracle's: diagonals compared as uint64 (signed zeros and NaN bits
    included), gathers exactly.  The package keeps the real part alone
    exactly when every imaginary part of the oracle's is 0."""
    expected_diagonals, expected_gathers = reference_grouped_operator(op)
    diagonals, gathers = _grouped_operator(op)
    assert expected_diagonals.dtype == np.complex128
    if expected_diagonals.imag.any():
        assert diagonals.dtype == np.complex128
    else:
        assert diagonals.dtype == np.float64
        expected_diagonals = np.ascontiguousarray(expected_diagonals.real)
    assert diagonals.shape == expected_diagonals.shape == (len({s.x_mask for s, _ in op}), 2**op.n_qubits)
    assert diagonals.view(np.uint64).tobytes() == expected_diagonals.view(np.uint64).tobytes()
    assert gathers.dtype == expected_gathers.dtype
    assert np.array_equal(gathers, expected_gathers)


# exact zeros and values below the prune tolerance are dropped by PauliSum;
# a NaN is kept so that contract checks fire
COEFFICIENTS = st.one_of(
    st.floats(-2.0, 2.0),
    st.complex_numbers(max_magnitude=2.0, allow_nan=False),
    st.sampled_from([0.0, -0.0, 1e-13, 1.0, -1.0, 1j, float("nan")]),
)


@st.composite
def pauli_sums(draw, min_qubits=1, coefficients=COEFFICIENTS, max_masks=4, max_terms=16):
    """Up to ``max_terms`` terms on ``min_qubits``-8 qubits over at most
    ``max_masks`` X-masks, so masks repeat and one group mixes terms of
    different phases; equal strings merge, and a pair of opposite
    coefficients cancels to a pruned zero."""
    n = draw(st.integers(min_qubits, 8))
    full = 2**n - 1
    x_masks = draw(st.lists(st.integers(0, full), min_size=1, max_size=max_masks))
    terms = []
    for _ in range(draw(st.integers(0, max_terms))):
        string = PauliString(n, draw(st.sampled_from(x_masks)), draw(st.integers(0, full)))
        coeff = draw(coefficients)
        terms.append((string, coeff))
        if draw(st.booleans()):
            terms.append((string, -coeff))
    return PauliSum.from_terms(n, terms)


# i^{|x & z|} takes all four phases in one X-mask group
EVERY_PHASE = PauliSum(
    4, {PauliString(4, 0b1111, z): c for z, c in ((0b0, 0.3), (0b1, -1.1), (0b11, 0.7), (0b111, 2.0))}
)


@given(pauli_sums())
@example(PauliSum(3))  # the empty sum
@example(PauliSum.from_label_dict({"XZY": 0.25}))  # a single string
@example(EVERY_PHASE)
@example(EVERY_PHASE + PauliSum(4, {PauliString(4, 0b1111, 0b1111): float("nan")}))
@settings(max_examples=200, deadline=None)
def test_grouped_operator_is_bitwise_the_term_loop(op):
    assert_same_table(op)


TABLE_SPACES = {
    "h2-2e2o": (FIXTURE_DIR / "h2_sto3g_0735.fcidump", 2, 2),
    "lih-2e3o": (FIXTURE_DIR / "lih_sto3g.fcidump", 2, 3),
    "h2o-4e4o": (FIXTURE_DIR / "h2o_sto3g.fcidump", 4, 4),
    "h8-4e6o": (FIXTURE_DIR.parent.parent / "bench" / "data" / "h8_sto3g.fcidump", 4, 6),
}


@pytest.mark.parametrize("space", TABLE_SPACES)
def test_grouped_operator_is_bitwise_the_term_loop_on_mapped_hamiltonians(space):
    path, n_electrons, n_orbitals = TABLE_SPACES[space]
    integrals = read_fcidump(path)
    active = reduce_integrals(integrals, solve_rhf(integrals), ActiveSpaceSpec(n_electrons, n_orbitals))
    hamiltonian = map_active_hamiltonian(active)
    assert_same_table(hamiltonian)
    diagonals, _ = _grouped_operator(hamiltonian)
    assert diagonals.dtype == np.float64 and diagonals.flags.c_contiguous


# -- the chunked kernels against the group loops they replaced -------------
#
# Both kernels work in chunks of _CHUNK_AMPLITUDES amplitudes; the tests
# shrink it so that a chunk holds one term or group, or a few and a
# remainder, and a group's terms straddle chunks.  Values are compared as
# uint64: signed zeros and the bits of every NaN included.

# the coefficients above, infinities and NaN parts on either axis
NON_FINITE_COEFFICIENTS = st.one_of(
    COEFFICIENTS,
    st.sampled_from([
        float("inf"), -float("inf"), -float("nan"), complex(float("nan"), 1.0),
        complex(0.5, float("nan")), complex(float("inf"), -1.0), complex(2.0, -float("inf")),
    ]),
)


def assert_same_bits(actual: np.ndarray, expected: np.ndarray):
    assert actual.dtype == expected.dtype and actual.shape == expected.shape
    assert actual.view(np.uint64).tobytes() == expected.view(np.uint64).tobytes()


@st.composite
def output_rows(draw, n_qubits):
    """1 to 2^n distinct output rows, in increasing order as a support is."""
    rows = draw(st.sets(st.integers(0, 2**n_qubits - 1), min_size=1, max_size=min(2**n_qubits, 40)))
    return np.array(sorted(rows), dtype=np.intp)


@st.composite
def tables(draw):
    """An operator of up to 12 X-mask groups, its output rows and a chunk
    budget from one row to more than the whole table."""
    op = draw(pauli_sums(min_qubits=0, coefficients=NON_FINITE_COEFFICIENTS, max_masks=12, max_terms=24))
    rows = draw(st.one_of(st.none(), output_rows(op.n_qubits)))
    n_rows = 2**op.n_qubits if rows is None else len(rows)
    budget = draw(st.integers(1, max(len(op), 1) * n_rows + 1))
    return op, rows, budget


@given(tables())
@example((PauliSum(3), None, 1))  # the empty sum
@example((PauliSum(0, {PauliString(0): 0.5}), None, 1))  # 0 qubits: one row
@example((PauliSum.identity(3, -0.75), np.array([5]), 1))  # identity alone, one row
# +NaN and -NaN in one group, on one row and on a row count that is no multiple of 4
@example((PauliSum(1, {PauliString(1, 0, 0): float("nan"), PauliString(1, 0, 1): -float("nan")}), np.array([1]), 1))
@example((PauliSum(3, {PauliString(3, 1, 0): float("nan"), PauliString(3, 1, 1): -float("nan")}), np.arange(7), 7))
@settings(max_examples=300, deadline=None)
def test_table_compile_is_bitwise_the_group_loop(case):
    op, rows, budget = case
    with np.errstate(invalid="ignore"), mock.patch.object(sim, "_CHUNK_AMPLITUDES", budget):
        diagonals, gathers = _grouped_operator(op, rows)
        expected_diagonals, expected_gathers = group_loop_grouped_operator(op, rows)
    assert_same_bits(diagonals, expected_diagonals)
    assert diagonals.flags.c_contiguous
    assert gathers.dtype == expected_gathers.dtype and np.array_equal(gathers, expected_gathers)


# 12 groups of one string on one output row, with magnitudes 20 decades apart:
# on the states of seed 1, a pairwise sum of their products rounds otherwise
# than the running sum
TWELVE_GROUPS = PauliSum(4, {PauliString(4, x, 0): (1e20 if x % 2 else -1.0) * x for x in range(1, 13)})


@given(tables(), st.integers(0, 9), SEEDS, st.sampled_from(("state", "block", "row-major block")), st.booleans())
@example((TWELVE_GROUPS, np.array([0]), 2**15), 1, 1, "state", True)
@example((TWELVE_GROUPS, np.array([0]), 2**15), 1, 1, "row-major block", True)
# one complex product, which numpy rounds otherwise when it multiplies a lone element in place
@example((PauliSum(0, {PauliString(0): 0.875 + 1j}), None, 1), 0, 3, "state", False)
@settings(max_examples=300, deadline=None)
def test_apply_is_bitwise_the_group_loop(case, n_columns, seed, layout, real):
    op, rows, budget = case
    with np.errstate(invalid="ignore"):
        table = _grouped_operator(op, rows)
    rng = np.random.default_rng(seed)
    shape = (2**op.n_qubits,) if layout == "state" else (2**op.n_qubits, n_columns)
    columns = rng.normal(size=shape) + (0.0 if real else 1j) * rng.normal(size=shape)
    columns[rng.random(shape) < 0.2] = 0.0
    columns[rng.random(shape) < 0.1] = -0.0
    if layout == "block":  # the (2^n, R) view of an (R, 2^n) block, as the row kernels pass it
        columns = np.ascontiguousarray(columns.T).T
    with np.errstate(invalid="ignore"), mock.patch.object(sim, "_CHUNK_AMPLITUDES", budget):
        applied = _apply_operator(columns, table)
        expected = group_loop_apply_operator(columns, table)
    assert_same_bits(np.ascontiguousarray(applied), expected)


def test_real_coefficient_y_string_keeps_a_complex_table():
    # XY = i X Z: a Hermitian string whose table entries are +-i
    op = PauliSum.from_label_dict({"ZZ": 0.5, "XY": 0.25})
    diagonals, _ = _grouped_operator(op)
    assert diagonals.dtype == np.complex128
    ansatz = build_uccsd_ansatz(2, 2)
    thetas = np.random.default_rng(5).uniform(-np.pi, np.pi, size=(3, ansatz.n_parameters))
    thetas[0] = 0.0
    rows = _evolve_rows(ansatz, thetas)
    energies = _expectation_rows(rows, _grouped_operator(op))
    for theta, energy in zip(thetas, energies):
        assert energy == expectation(evolve_ansatz(ansatz, theta), op)


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
    energies = _expectation_rows(rows, _grouped_operator(op))
    assert rows.shape == (n_rows, 2**ansatz.n_qubits) and energies.shape == (n_rows,)
    for theta, amps, energy in zip(thetas, rows, energies):
        state = evolve_ansatz(ansatz, theta)
        assert_bitwise_real(np.ascontiguousarray(amps), state.amplitudes)
        assert energy == expectation(state, op)
    # a row-major block of states gives the same energies
    assert_bitwise(_expectation_rows(np.ascontiguousarray(rows), _grouped_operator(op)), energies)


def assert_support_kernels_are_the_full_register(ansatz, thetas, op):
    """The support kernels against the full-register ones: amplitudes
    equal with the sign of every zero normalised, energies bitwise as
    uint64, both on the table of the ansatz's support."""
    rows = _evolve_rows(ansatz, thetas)
    expected = full_register_evolve_rows(ansatz, thetas)
    assert rows.dtype == expected.dtype and rows.shape == expected.shape
    assert np.where(rows == 0, 0.0, rows).tobytes() == np.where(expected == 0, 0.0, expected).tobytes()
    support = ansatz._support
    energies = _expectation_rows(rows, _grouped_operator(op, support), support)
    expected_energies = full_register_expectation_rows(expected, op)
    assert energies.view(np.uint64).tobytes() == expected_energies.view(np.uint64).tobytes()


# up to 33 rows: one more than the gradient block of the 10-qubit ansatz
@given(
    which=st.integers(0, len(ANSATZ_SHAPES) - 1),
    seed=SEEDS,
    n_rows=st.integers(1, 33),
)
@settings(max_examples=80, deadline=None)
def test_support_kernels_are_the_full_register_kernels(ansatze, which, seed, n_rows):
    ansatz = ansatze[which]
    thetas = random_parameter_rows(ansatz, seed, n_rows)
    thetas[0] = 0.0  # a row with every angle zero
    assert_support_kernels_are_the_full_register(ansatz, thetas, random_hermitian_sum(seed, ansatz.n_qubits))


def test_support_is_the_reach_of_the_rotations(ansatze):
    for ansatz in ansatze:
        reached = np.zeros(2**ansatz.n_qubits, dtype=bool)
        reached[ansatz.reference_index] = True
        for moved, _, _ in ansatz._rotations:
            reached[moved] = True  # every kept entry touches the support
        assert ansatz._support.tolist() == np.flatnonzero(reached).tolist()
        # singles and doubles reach every determinant of the reference's sector
        sector = math.comb(ansatz.n_spatial, ansatz.n_alpha) * math.comb(ansatz.n_spatial, ansatz.n_beta)
        assert len(ansatz._support) == sector


@pytest.mark.parametrize("which", range(len(ANSATZ_SHAPES)))
def test_dropping_a_reachable_rotation_entry_is_caught(ansatze, which):
    """A mutant ansatz that leaves out one kept entry of one rotation
    (its gather, scatter, trig rows and trig scales, every later trig
    slice moved up to match) fails the comparison with the full-register
    kernels."""
    ansatz = ansatze[which]
    rng = np.random.default_rng(which)
    thetas = rng.uniform(-np.pi, np.pi, size=(2, ansatz.n_parameters))
    op = random_hermitian_sum(which, ansatz.n_qubits)
    for k in rng.choice(ansatz.n_parameters, size=min(4, ansatz.n_parameters), replace=False):
        moved, connected, entries = ansatz._rotations[k]
        half = len(connected)
        j = int(rng.integers(half))
        keep = np.arange(len(moved)) % half != j
        trig_keep = np.ones(len(ansatz._trig_rows), dtype=bool)
        trig_keep[entries] = keep
        mutant = copy.copy(ansatz)
        rotations = [(moved, connected) for moved, connected, _ in ansatz._rotations]
        rotations[k] = (moved[keep], connected[keep[half:]])
        stops = np.cumsum([len(moved) for moved, _ in rotations]).tolist()
        rotations = [(moved, connected, slice(stop - len(moved), stop)) for (moved, connected), stop in zip(rotations, stops)]
        object.__setattr__(mutant, "_rotations", tuple(rotations))
        object.__setattr__(mutant, "_trig_rows", ansatz._trig_rows[trig_keep])
        object.__setattr__(mutant, "_trig_scales", ansatz._trig_scales[trig_keep])
        with pytest.raises(AssertionError):
            assert_support_kernels_are_the_full_register(mutant, thetas, op)


@given(
    n=st.integers(1, 4096),
    n_rows=st.integers(1, 64),
    seed=SEEDS,
    real=st.booleans(),
    zero_fraction=st.sampled_from((0.0, 0.5, 0.9, 1.0)),
)
@settings(max_examples=100, deadline=None)
def test_batched_dot_is_bitwise_the_row_vdots(n, n_rows, seed, real, zero_fraction):
    rng = np.random.default_rng(seed)
    blocks = []
    for _ in range(2):
        block = rng.normal(size=(n_rows, n)) + (0.0 if real else 1j) * rng.normal(size=(n_rows, n))
        block = np.asarray(block, dtype=np.complex128)
        block[rng.random(block.shape) < zero_fraction] = 0.0
        block[rng.random(block.shape) < 0.1 * zero_fraction] = -0.0 - 0.0j
        blocks.append(block)
    rows, others = blocks
    expected = np.array([np.vdot(row, other) for row, other in zip(rows, others)])
    assert _row_dots(rows, others).view(np.uint64).tobytes() == expected.view(np.uint64).tobytes()


ZERO_PARAMETER_SPACES = {"h2o-6e3o": (6, 3), "h2o-8e4o": (8, 4)}


@pytest.mark.parametrize("space", ZERO_PARAMETER_SPACES)
def test_zero_parameter_energy_is_bitwise_the_full_register(h2o_integrals, space):
    """With no parameters the support is the reference alone; the energy
    is still the full-register one, where groups of 16 and 31 terms are
    summed in term order."""
    active = reduce_integrals(h2o_integrals, solve_rhf(h2o_integrals), ActiveSpaceSpec(*ZERO_PARAMETER_SPACES[space]))
    hamiltonian = map_active_hamiltonian(active)
    ansatz = build_uccsd_ansatz(active.n_orbitals, active.n_electrons)
    assert ansatz.n_parameters == 0 and len(ansatz._support) == 1
    result = vqe.minimize(hamiltonian, ansatz, vqe.VqeConfig())
    expected = full_register_expectation_rows(full_register_evolve_rows(ansatz, np.zeros((1, 0))), hamiltonian)
    assert np.array(result.energy).tobytes() == expected.tobytes()


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
        assert_bitwise_real(np.ascontiguousarray(amps), evolve_ansatz(ansatz, theta).amplitudes)
    reference = hf_state(ansatz.n_qubits, ansatz.reference_index).amplitudes
    assert_bitwise_real(np.ascontiguousarray(rows[0]), reference)


@pytest.mark.parametrize("molecule", FIXTURE_ANSATZ_SHAPES)
@pytest.mark.parametrize("n_rows", [1, 2, 7, 17])
@pytest.mark.parametrize("seed", [0, 1])
def test_in_place_rotation_is_bitwise_the_one_expression_rotation(molecule, n_rows, seed):
    ansatz = build_uccsd_ansatz(*FIXTURE_ANSATZ_SHAPES[molecule])
    thetas = random_parameter_rows(ansatz, seed, n_rows)
    thetas[0] = 0.0  # a row with every angle zero
    rows = _evolve_rows(ansatz, thetas)
    assert_bitwise(rows, reference_evolve_rows(ansatz, thetas, np.float64))
    assert_real_part_of_complex_arithmetic(rows, reference_evolve_rows(ansatz, thetas))


@given(
    molecule=st.sampled_from(sorted(FIXTURE_ANSATZ_SHAPES)),
    seed=SEEDS,
    n_rows=st.sampled_from((1, 17)),
    zero_fraction=st.sampled_from((0.0, 0.3, 1.0)),
)
@settings(max_examples=60, deadline=None)
def test_real_rows_are_the_complex_rotation_arithmetic(molecule, seed, n_rows, zero_fraction):
    ansatz = build_uccsd_ansatz(*FIXTURE_ANSATZ_SHAPES[molecule])
    rng = np.random.default_rng(seed)
    thetas = rng.uniform(-np.pi, np.pi, size=(n_rows, ansatz.n_parameters))
    thetas[rng.random(thetas.shape) < zero_fraction] = 0.0
    rows = _evolve_rows(ansatz, thetas)
    assert rows.dtype == np.float64
    assert_real_part_of_complex_arithmetic(rows, reference_evolve_rows(ansatz, thetas))


@given(which=st.integers(0, len(ANSATZ_SHAPES) - 1), seed=SEEDS)
@settings(max_examples=40, deadline=None)
def test_single_real_row_is_bitwise_the_complex_path(ansatze, which, seed):
    ansatz = ansatze[which]
    row = _evolve_rows(ansatz, random_parameters(ansatz, seed, 0.3)[None, :])
    op = random_hermitian_sum(seed, ansatz.n_qubits)
    assert row.dtype == np.float64 and row.shape == (1, 2**ansatz.n_qubits)
    table = _grouped_operator(op)
    energy = _expectation_rows(row, table)
    assert_bitwise(energy, _expectation_rows(row.astype(np.complex128), table))


@given(
    which=st.integers(0, len(ANSATZ_SHAPES) - 1),
    seed=SEEDS,
    n_rows=st.integers(1, 33),
    zero_fraction=st.sampled_from((0.0, 0.3, 1.0)),
)
@settings(max_examples=80, deadline=None)
def test_folded_rotation_is_bitwise_the_unfolded_rotation(ansatze, which, seed, n_rows, zero_fraction):
    ansatz = ansatze[which]
    rng = np.random.default_rng(seed)
    thetas = rng.uniform(-np.pi, np.pi, size=(n_rows, ansatz.n_parameters))
    thetas[rng.random(thetas.shape) < zero_fraction] = 0.0
    thetas[rng.random(thetas.shape) < 0.1] = -0.0
    assert_same_bits(_evolve_rows(ansatz, thetas), unfolded_evolve_rows(ansatz, thetas))


@pytest.mark.parametrize("scale, message", [(2.0, "0 or -1"), (1.0 + 2.0**-40, "other than exactly")])
def test_generator_factor_other_than_one_is_rejected(scale, message):
    """A factor of 2 fails the G^2 check; a factor 2^-40 off 1 passes it and
    fails the exactness a folded rotation needs."""
    base = build_uccsd_ansatz(2, 2)
    generator = scale * base.generators[0]
    with pytest.raises(SimulationError, match=message):
        _compile_generator(generator, np.ones(2**generator.n_qubits, dtype=bool))
    with pytest.raises(SimulationError, match=message):
        dataclasses.replace(base, generators=(generator,) + base.generators[1:])


def test_kernels_allocate_a_chunk_not_a_term_array():
    """At the paper's 10-qubit H8 (4e,6o) space, one table compile on the
    support and one gradient block through ``_apply_operator`` allocate
    their outputs and at most three chunks beside them, never a
    (terms x rows) or (groups x amplitudes) array."""
    path, n_electrons, n_orbitals = TABLE_SPACES["h8-4e6o"]
    integrals = read_fcidump(path)
    active = reduce_integrals(integrals, solve_rhf(integrals), ActiveSpaceSpec(n_electrons, n_orbitals))
    hamiltonian = map_active_hamiltonian(active)
    ansatz = build_uccsd_ansatz(active.n_orbitals, active.n_electrons)
    support = ansatz._support
    columns = _evolve_rows(ansatz, random_parameter_rows(ansatz, 0, sim._CHUNK_AMPLITUDES // 2**ansatz.n_qubits)).T
    chunk = sim._CHUNK_AMPLITUDES * np.dtype(np.complex128).itemsize
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        diagonals, gathers = _grouped_operator(hamiltonian, support)
        compile_peak = tracemalloc.get_traced_memory()[1] - held
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        applied = _apply_operator(columns, (diagonals, gathers))
        apply_peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    n_terms, (n_groups, n_rows) = len(hamiltonian), diagonals.shape
    assert diagonals.dtype == np.float64 and columns.dtype == np.float64
    # the complex sums the float64 table is read from, the table and its gathers
    outputs = n_groups * n_rows * 16 + diagonals.nbytes + gathers.nbytes
    assert compile_peak <= outputs + 3 * chunk < outputs + n_terms * n_rows * 16
    assert apply_peak <= applied.nbytes + 3 * chunk // 2 < n_groups * applied.nbytes


def test_expectation_rows_checks_every_row():
    op = PauliSum.from_label_dict({"ZI": 1j})  # not Hermitian: <a|op|a> = i <a|Z_0|a>
    amps = np.zeros((3, 4), dtype=np.complex128)
    amps[:2, :2] = np.sqrt(0.5)  # <Z_0> = 0 on the first two rows
    amps[2, 0] = 1.0  # <Z_0> = 1 on the last
    with pytest.raises(SimulationError, match="imaginary residue"):
        _expectation_rows(amps, _grouped_operator(op))


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


def test_generator_factor_with_imaginary_part_above_tolerance_is_rejected():
    base = build_uccsd_ansatz(2, 2)
    # each real residue passes the anti-Hermitian check, but on half the
    # basis the two add to a factor with imaginary part 1.6e-10
    summed = PauliSum.from_label_dict({"XY": 0.5j + 8e-11, "YX": -0.5j - 8e-11})
    with pytest.raises(SimulationError, match="imaginary part 1.600e-10"):
        dataclasses.replace(base, generators=(summed,) + base.generators[1:])


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
    block = _expectation_rows(rows, _grouped_operator(hamiltonian))
    # the real rows of the block, then a complex state through the public path alone
    states = [amps.astype(np.complex128) for amps in rows] + [random_amplitudes(seed, ansatz.n_qubits)]
    for amps, energy in zip(states, list(block) + [None]):
        one_row = expectation(Statevector(ansatz.n_qubits, amps), hamiltonian)
        if energy is not None:
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

    def group_loop_rows(amps, table, support):
        # every swept row goes through the full-register group loop, one row at a time
        looped_rows.extend(amps)
        rows = (np.ascontiguousarray(row) for row in amps)
        return np.array([reference_grouped_expectation(row, hamiltonian) for row in rows])

    monkeypatch.setattr(sim, "_expectation_rows", group_loop_rows)
    looped = vqe.minimize(hamiltonian, ansatz, config)
    assert len(looped_rows) == looped.evaluations - looped.iterations
    assert result.evaluations == looped.evaluations
    assert_bitwise(np.array(result.trace), np.array(looped.trace))
    assert_bitwise(result.parameters, looped.parameters)
