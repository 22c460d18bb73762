"""The compiled qubit Hamiltonian and UCCSD generators against their
fermion-operator oracle.

``map_active_hamiltonian`` multiplies a per-shape sparse matrix by the
integral vector; ``reference_map_active_hamiltonian`` expands the
fermion operator and maps it term by term.  ``build_uccsd_ansatz`` reads
each generator off one compiled column per excitation;
``reference_map_operator`` maps each T - T^dagger term by term.
"""

import struct

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qcembed.sim as sim
from qcembed.activespace import ActiveHamiltonian, ActiveSpaceSpec, reduce_integrals
from qcembed.embedding import EmbeddingConfig
from qcembed.fermion import (
    excitation_generator,
    hamiltonian_columns,
    integral_vector,
    spin_orbital_hamiltonian,
)
from qcembed.integrals import SymmetricTwoBody, canonical_classes, read_fcidump, save_fcidump
from qcembed.mappings import ReductionError, reduction_sector
from qcembed.meanfield import solve_rhf
from qcembed.pauli import PRUNE_TOLERANCE, PauliSum
from qcembed.scan import MuScanSpec, mu_scan
from qcembed.sim import build_uccsd_ansatz, map_active_hamiltonian

from oracles import (
    annihilation_matrix,
    fermion_operator_matrix,
    pauli_sum_matrix,
    reference_map_active_hamiltonian,
    reference_map_operator,
    reference_reachable_rotations,
)

FIXTURES = Path(__file__).parent / "fixtures"
H8 = Path(__file__).parent.parent / "bench" / "data" / "h8_sto3g.fcidump"

# every fixture active space
SPACES = [
    pytest.param(path, n_electrons, n_orbitals, id=f"{label}-{n_electrons}e{n_orbitals}o")
    for label, path, n_electrons, n_orbitals in (
        ("h2", FIXTURES / "h2_sto3g_0735.fcidump", 2, 2),
        ("lih", FIXTURES / "lih_sto3g.fcidump", 2, 3),
        ("h2o", FIXTURES / "h2o_sto3g.fcidump", 4, 4),
        ("h2o", FIXTURES / "h2o_sto3g.fcidump", 6, 5),
        ("h2o", FIXTURES / "h2o_sto3g.fcidump", 8, 6),
        ("h8", H8, 4, 6),
    )
]

MAPPINGS = [("parity", True), ("parity", False), ("jordan-wigner", False)]


def _active(path, n_electrons, n_orbitals):
    integrals = read_fcidump(path)
    spec = ActiveSpaceSpec(n_electrons, n_orbitals)
    return reduce_integrals(integrals, solve_rhf(integrals), spec)


def assert_same_terms(compiled, reference, tol=1e-12, ordered=True):
    assert compiled.n_qubits == reference.n_qubits
    strings = [string for string, _ in compiled]
    expected = [string for string, _ in reference]
    if ordered:
        assert strings == expected
    else:
        assert set(strings) == set(expected)
    for string, coeff in reference:
        assert abs(compiled.coefficient(string) - coeff) <= tol


@pytest.mark.parametrize("path, n_electrons, n_orbitals", SPACES)
def test_compiled_map_matches_reference_on_fixtures(path, n_electrons, n_orbitals):
    active = _active(path, n_electrons, n_orbitals)
    for mapping, reduced in MAPPINGS:
        sim._compile_hamiltonian.cache_clear()
        cold = map_active_hamiltonian(active, mapping=mapping, two_qubit_reduced=reduced)
        warm = map_active_hamiltonian(active, mapping=mapping, two_qubit_reduced=reduced)
        # the same terms in the same order with bitwise-equal coefficients
        assert list(cold) == list(warm)
        reference = reference_map_active_hamiltonian(
            active, mapping=mapping, two_qubit_reduced=reduced
        )
        assert_same_terms(cold, reference)


def _random_value(rng, zero_fraction, tiny_fraction):
    u = rng.random()
    if u < zero_fraction:
        return 0.0
    sign = rng.choice((-1.0, 1.0))
    if u < zero_fraction + tiny_fraction:
        return float(sign * 10.0 ** rng.uniform(-14.0, -10.0))
    return float(sign * 10.0 ** rng.uniform(-6.0, 0.3))


def random_symmetric_active(
    rng, n_orbitals, n_electrons, zero_fraction=0.3, h=None, tiny_fraction=0.0
):
    """Active Hamiltonian with a symmetric h (unless given) and an
    8-fold-symmetric two-body part; each integral is 0, tiny
    (1e-14 <= |v| <= 1e-10, a ``tiny_fraction`` of them) or |v| >= 1e-6."""
    if h is None:
        h = np.zeros((n_orbitals, n_orbitals))
        for p in range(n_orbitals):
            for q in range(p + 1):
                h[p, q] = h[q, p] = _random_value(rng, zero_fraction, tiny_fraction)
    two = SymmetricTwoBody(n_orbitals)
    for p, q, r, s in canonical_classes(n_orbitals):
        two.set(p, q, r, s, _random_value(rng, zero_fraction, tiny_fraction))
    return ActiveHamiltonian(n_orbitals, n_electrons, 0.0, h, two)


def _parity_sector_block(matrix, n_orbitals, n_alpha, n_electrons):
    """Fock states whose alpha and total particle numbers have the parities
    of (n_alpha, n_electrons): the states the two-qubit reduction keeps."""
    states = [
        state
        for state in range(2 ** (2 * n_orbitals))
        if (state & ((1 << n_orbitals) - 1)).bit_count() % 2 == n_alpha % 2
        and state.bit_count() % 2 == n_electrons % 2
    ]
    return matrix[np.ix_(states, states)]


@given(
    seed=st.integers(0, 2**32 - 1),
    n_orbitals=st.integers(1, 3),
    occupation=st.tuples(st.integers(0, 3), st.integers(0, 3)),
    zero_fraction=st.sampled_from((0.0, 0.3, 0.7)),
)
@settings(max_examples=25, deadline=None)
def test_random_hamiltonians_spectra_and_reference(seed, n_orbitals, occupation, zero_fraction):
    n_alpha, n_beta = (min(count, n_orbitals) for count in occupation)
    n_electrons, spin_2ms = n_alpha + n_beta, n_alpha - n_beta
    active = random_symmetric_active(
        np.random.default_rng(seed), n_orbitals, n_electrons, zero_fraction
    )
    maps = {}
    for mapping, reduced in MAPPINGS:
        maps[mapping, reduced] = map_active_hamiltonian(active, spin_2ms, mapping, reduced)
        reference = reference_map_active_hamiltonian(active, spin_2ms, mapping, reduced)
        assert_same_terms(maps[mapping, reduced], reference, ordered=False)

    jw = np.linalg.eigvalsh(pauli_sum_matrix(maps["jordan-wigner", False]))
    parity = np.linalg.eigvalsh(pauli_sum_matrix(maps["parity", False]))
    np.testing.assert_allclose(jw, parity, atol=1e-10)

    fock = fermion_operator_matrix(spin_orbital_hamiltonian(active))
    np.testing.assert_allclose(jw, np.linalg.eigvalsh(fock), atol=1e-10)
    sector = _parity_sector_block(fock, n_orbitals, n_alpha, n_electrons)
    reduced = np.linalg.eigvalsh(pauli_sum_matrix(maps["parity", True]))
    assert reduced[0] == pytest.approx(np.linalg.eigvalsh(sector)[0], abs=1e-10)


@given(
    seed=st.integers(0, 2**32 - 1),
    n_orbitals=st.integers(1, 3),
    occupation=st.tuples(st.integers(0, 3), st.integers(0, 3)),
    tiny_fraction=st.sampled_from((0.3, 0.7)),
)
@settings(max_examples=25, deadline=None)
def test_tiny_integrals_move_terms_by_at_most_what_the_reference_drops(
    seed, n_orbitals, occupation, tiny_fraction
):
    # The reference prunes each term's ladder product below PRUNE_TOLERANCE
    # after every factor; the compiled map prunes only the final sums.  A
    # term weight * x whose product has k <= 4 factors carries entries of
    # |weight * x| 2^-j or 0 after j of them, so only terms with
    # |weight * x| / 16 < PRUNE_TOLERANCE can lose anything, and never more
    # than the L1 norm |weight * x| of their product.
    n_alpha, n_beta = (min(count, n_orbitals) for count in occupation)
    n_electrons, spin_2ms = n_alpha + n_beta, n_alpha - n_beta
    active = random_symmetric_active(
        np.random.default_rng(seed), n_orbitals, n_electrons, 0.2, tiny_fraction=tiny_fraction
    )
    dropped = sum(
        weight * abs(x) * len(terms)
        for x, (weight, terms) in zip(integral_vector(active), hamiltonian_columns(n_orbitals))
        if weight * abs(x) / 16 < PRUNE_TOLERANCE
    )
    # a reduced string gathers up to 4 strings, each pruned once before and
    # the sum pruned twice after the reduction; the compiled map prunes once
    bound = dropped + 8 * PRUNE_TOLERANCE
    for mapping, reduced in MAPPINGS:
        compiled = map_active_hamiltonian(active, spin_2ms, mapping, reduced)
        reference = reference_map_active_hamiltonian(active, spin_2ms, mapping, reduced)
        for string in set(compiled.terms()) | set(reference.terms()):
            assert abs(compiled.coefficient(string) - reference.coefficient(string)) <= bound


def constructor_map(active, mapping, reduced):
    """The mapped Hamiltonian as the ``PauliSum`` constructor prunes it:
    every candidate string with its real value, checked one at a time."""
    sector = reduction_sector(active.n_electrons, active.n_electrons // 2) if reduced else None
    compiled = sim._compile_hamiltonian(active.n_orbitals, mapping, sector)
    values = compiled.matrix @ integral_vector(active)
    return PauliSum(compiled.n_qubits, dict(zip(compiled.strings, values.real.tolist())))


def assert_same_sum(op, expected):
    """The same strings in the same order, each coefficient the same
    complex bits."""
    assert op.n_qubits == expected.n_qubits
    assert _term_bytes(op) == _term_bytes(expected)
    assert all(type(coeff) is complex for _, coeff in op)


@pytest.mark.parametrize("path, n_electrons, n_orbitals", SPACES)
def test_numpy_prune_is_the_constructor_on_fixtures(path, n_electrons, n_orbitals):
    active = _active(path, n_electrons, n_orbitals)
    for mapping, reduced in MAPPINGS:
        op = map_active_hamiltonian(active, mapping=mapping, two_qubit_reduced=reduced)
        assert_same_sum(op, constructor_map(active, mapping, reduced))


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("zero_fraction, tiny_fraction", [(0.0, 0.0), (0.3, 0.3), (0.6, 0.4)])
def test_numpy_prune_is_the_constructor_on_random_hamiltonians(seed, zero_fraction, tiny_fraction):
    rng = np.random.default_rng(seed)
    active = random_symmetric_active(rng, 3, 2, zero_fraction=zero_fraction, tiny_fraction=tiny_fraction)
    for mapping, reduced in MAPPINGS:
        op = map_active_hamiltonian(active, mapping=mapping, two_qubit_reduced=reduced)
        assert_same_sum(op, constructor_map(active, mapping, reduced))


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_numpy_prune_keeps_non_finite_values(value):
    active = random_symmetric_active(np.random.default_rng(0), 2, 2)
    active.two_body.set(0, 0, 1, 1, value)
    op = map_active_hamiltonian(active)
    assert_same_sum(op, constructor_map(active, "parity", True))
    assert any(not np.isfinite(coeff) for _, coeff in op)


def test_tiny_integral_survives_the_compiled_map():
    # a hopping integral of 3e-12 is 7.5e-13 after both ladder factors of
    # each term, which the reference prunes; the two spins' terms add to
    # 1.5e-12 on each XX and YY string, which the compiled map keeps
    h = np.array([[0.5, 3e-12], [3e-12, -0.3]])
    active = random_symmetric_active(np.random.default_rng(6), 2, 2, zero_fraction=1.0, h=h)
    compiled = map_active_hamiltonian(active, mapping="jordan-wigner", two_qubit_reduced=False)
    reference = reference_map_active_hamiltonian(
        active, mapping="jordan-wigner", two_qubit_reduced=False
    )
    extra = set(compiled.terms()) - set(reference.terms())
    assert extra and set(reference.terms()) <= set(compiled.terms())
    for string in extra:
        assert abs(compiled.coefficient(string)) == pytest.approx(1.5e-12)


def _explicit_hamiltonian_matrix(h, eri):
    """sum_pq h_pq E_pq + (1/2) sum (pq|rs) a+_p,s a+_r,t a_s,t a_q,s built
    from dense ladder matrices, one index tuple at a time."""
    n = h.shape[0]
    a = [annihilation_matrix(2 * n, mode) for mode in range(2 * n)]
    matrix = np.zeros((4**n, 4**n))
    for spin in (0, n):
        for p in range(n):
            for q in range(n):
                matrix += h[p, q] * a[p + spin].T @ a[q + spin]
    for s1 in (0, n):
        for s2 in (0, n):
            for p, q, r, s in np.ndindex(n, n, n, n):
                if eri[p, q, r, s] != 0.0:
                    matrix += (
                        0.5 * eri[p, q, r, s]
                        * a[p + s1].T @ a[r + s2].T @ a[s + s2] @ a[q + s1]
                    )
    return matrix


@pytest.mark.parametrize("n_orbitals", [2, 3])
def test_fermion_expansion_reads_every_integral_in_place(n_orbitals):
    # an asymmetric h tells h_pq from h_qp
    rng = np.random.default_rng(11 + n_orbitals)
    h = rng.normal(size=(n_orbitals, n_orbitals))
    active = random_symmetric_active(rng, n_orbitals, 2, zero_fraction=0.2, h=h)
    expected = _explicit_hamiltonian_matrix(h, active.two_body_dense())
    matrix = fermion_operator_matrix(spin_orbital_hamiltonian(active))
    np.testing.assert_allclose(matrix, expected, atol=1e-12)


@pytest.mark.parametrize("mapping, reduced", MAPPINGS)
def test_compiled_matrix_is_the_complex_fermion_image(mapping, reduced):
    # before the imaginary check: an asymmetric h leaves imaginary terms
    rng = np.random.default_rng(5)
    h = rng.normal(size=(3, 3))
    active = random_symmetric_active(rng, 3, 2, zero_fraction=0.2, h=h)
    compiled = sim._compile_hamiltonian(3, mapping, reduction_sector(2, 1) if reduced else None)
    image = dict(zip(compiled.strings, compiled.matrix @ integral_vector(active)))
    reference = reference_map_operator(spin_orbital_hamiltonian(active), mapping, reduced, 2, 1)
    assert reference.max_imaginary_part() > 1e-3
    for string in set(image) | set(reference.terms()):
        assert abs(image.get(string, 0.0) - reference.coefficient(string)) <= 1e-12


def test_non_hermitian_hamiltonian_is_rejected():
    h = np.array([[0.5, 0.2], [0.1, -0.3]])
    active = random_symmetric_active(np.random.default_rng(2), 2, 2, h=h)
    for mapping, reduced in MAPPINGS:
        with pytest.raises(ValueError, match="imaginary coefficient residue"):
            map_active_hamiltonian(active, mapping=mapping, two_qubit_reduced=reduced)


def test_term_with_cancelled_real_part_is_pruned():
    # h_01 = -h_10 = 1e-11: the hopping terms' real parts cancel to 0 and
    # their imaginary parts, 5e-12, pass the check and are dropped
    h = np.array([[0.5, 1e-11], [-1e-11, -0.3]])
    active = random_symmetric_active(np.random.default_rng(3), 2, 2, zero_fraction=0.0, h=h)
    for mapping, reduced in MAPPINGS:
        compiled = map_active_hamiltonian(active, mapping=mapping, two_qubit_reduced=reduced)
        reference = reference_map_active_hamiltonian(
            active, mapping=mapping, two_qubit_reduced=reduced
        )
        assert_same_terms(compiled, reference)
        assert all(coeff.imag == 0.0 and coeff.real != 0.0 for _, coeff in compiled)


def test_mapping_errors():
    active = random_symmetric_active(np.random.default_rng(4), 2, 2)
    with pytest.raises(ValueError, match="unknown mapping"):
        map_active_hamiltonian(active, mapping="bravyi-kitaev")
    with pytest.raises(ReductionError, match="parity mapping"):
        map_active_hamiltonian(active, mapping="jordan-wigner", two_qubit_reduced=True)
    empty = ActiveHamiltonian(0, 0, 0.0, np.zeros((0, 0)), SymmetricTwoBody(0))
    with pytest.raises(ReductionError, match="qubit count"):
        map_active_hamiltonian(empty)
    assert map_active_hamiltonian(empty, mapping="jordan-wigner", two_qubit_reduced=False).is_zero


@pytest.mark.parametrize("mapping, reduced", MAPPINGS)
def test_compiled_matrix_is_read_only_and_stores_no_zeros(mapping, reduced):
    sector = reduction_sector(2, 1) if reduced else None
    matrix = sim._compile_hamiltonian(3, mapping, sector).matrix
    for array in (matrix.data, matrix.indices, matrix.indptr):
        assert not array.flags.writeable
    assert np.all(matrix.data != 0.0)


def test_mu_scan_compiles_each_hamiltonian_shape_once(tmp_path, h2_integrals):
    import dataclasses

    paths = {}
    for mu in (1.0, 1.5, 2.0):
        shifted = dataclasses.replace(h2_integrals, core_energy=h2_integrals.core_energy + mu)
        paths[mu] = tmp_path / f"h2_mu{mu:.2f}.fcidump"
        save_fcidump(shifted, paths[mu])
    spec = MuScanSpec(mu_start=1.0, mu_end=2.0, mu_step=0.5, per_mu_inputs=paths)
    sim._compile_hamiltonian.cache_clear()
    _, rows = mu_scan(spec, ActiveSpaceSpec(2, 2), EmbeddingConfig(active_solver="vqe"))
    assert all(row.converged for row in rows)
    info = sim._compile_hamiltonian.cache_info()
    # one map per point; the second iteration of each point reuses its solve
    assert (info.misses, info.hits) == (1, 2)


def test_electron_counts_of_one_sector_share_a_compile():
    # W depends on the electrons only through the parity sector of the
    # reduction: (2e, 2ms=0) and (6e, 2ms=0) both have odd alpha and even
    # total parity, and an unreduced W does not depend on them at all
    rng = np.random.default_rng(8)
    sim._compile_hamiltonian.cache_clear()
    for n_electrons in (2, 6):
        active = random_symmetric_active(rng, 3, n_electrons)
        for mapping, reduced in MAPPINGS:
            map_active_hamiltonian(active, mapping=mapping, two_qubit_reduced=reduced)
    assert sim._compile_hamiltonian.cache_info().misses == len(MAPPINGS)
    active = random_symmetric_active(rng, 3, 4)
    map_active_hamiltonian(active)
    assert sim._compile_hamiltonian.cache_info().misses == len(MAPPINGS) + 1


# (n_spatial, n_electrons, MS2), up to the paper's (4e,6o) and beyond
ANSATZ_SHAPES = [
    pytest.param(m, ne, ms2, id=f"{ne}e{m}o-ms{ms2}")
    for m, ne, ms2 in (
        (2, 2, 0), (3, 2, 0), (5, 2, 0), (4, 4, 0), (6, 4, 0), (6, 6, 0), (6, 8, 0), (4, 2, 2)
    )
]


def _term_bytes(op):
    return [(string, struct.pack("<dd", coeff.real, coeff.imag)) for string, coeff in op]


@pytest.mark.parametrize("mapping, reduced", MAPPINGS)
@pytest.mark.parametrize("n_spatial, n_electrons, spin_2ms", ANSATZ_SHAPES)
def test_ansatz_generators_are_bitwise_the_term_by_term_map(
    n_spatial, n_electrons, spin_2ms, mapping, reduced
):
    ansatz = build_uccsd_ansatz(n_spatial, n_electrons, spin_2ms, mapping, reduced)
    assert ansatz.n_parameters == len(ansatz.generators) > 0
    references = [
        reference_map_operator(
            excitation_generator(excitation, 2 * n_spatial), mapping, reduced,
            n_electrons, ansatz.n_alpha,
        )
        for excitation in ansatz.excitations
    ]
    # the oracle's generators, compiled and kept at the entries that touch the support
    reachable, reached = reference_reachable_rotations(references, ansatz.reference_index)
    assert ansatz._support.tolist() == sorted(reached)
    for generator, reference, rotation, (connected, source, factors) in zip(
        ansatz.generators, references, ansatz._rotations, reachable
    ):
        assert generator.n_qubits == reference.n_qubits == ansatz.n_qubits
        # strings in the oracle's order, coefficient bytes (and signs of zero) included
        assert _term_bytes(generator) == _term_bytes(reference)
        moved, kept, entries = rotation
        scales = ansatz._trig_scales[entries]
        expected = (np.concatenate([source, connected]), connected, np.concatenate([factors, np.ones(len(factors))]))
        for array, expected_array in zip((moved, kept, scales), expected):
            assert array.dtype == expected_array.dtype
            assert array.tobytes() == expected_array.tobytes()


@pytest.mark.parametrize("n_electrons", [2, 4])  # 4 in 2 orbitals: no parameters
def test_ansatz_mapping_errors(n_electrons):
    with pytest.raises(ValueError, match="unknown mapping"):
        build_uccsd_ansatz(2, n_electrons, mapping="bravyi-kitaev")
    with pytest.raises(ReductionError, match="parity mapping"):
        build_uccsd_ansatz(2, n_electrons, mapping="jordan-wigner", two_qubit_reduced=True)
