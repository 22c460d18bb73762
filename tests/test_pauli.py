"""Pauli string/sum algebra against dense kron-product oracles."""

import numpy as np

from qcembed.pauli import PRUNE_TOLERANCE, PauliString, PauliSum

from oracles import pauli_label_matrix, pauli_sum_matrix

PHASES = (1.0, 1.0j, -1.0, -1.0j)


def random_label(rng, n):
    return "".join(rng.choice(list("IXYZ")) for _ in range(n))


def test_label_roundtrip():
    for label in ("I", "X", "Y", "Z", "IXYZ", "ZZXI", "YYYY"):
        assert PauliString.from_label(label).label == label


def test_identity_iff_masks_zero():
    assert PauliString.identity(3).is_identity
    assert not PauliString.from_label("IZI").is_identity


def test_mask_semantics():
    p = PauliString.from_label("XYZI")
    assert p.x_mask == 0b0011
    assert p.z_mask == 0b0110


def test_single_qubit_composition_table():
    table = {
        ("X", "Y"): (1, "Z"),
        ("Y", "X"): (3, "Z"),
        ("Y", "Z"): (1, "X"),
        ("Z", "Y"): (3, "X"),
        ("Z", "X"): (1, "Y"),
        ("X", "Z"): (3, "Y"),
        ("X", "X"): (0, "I"),
        ("Y", "Y"): (0, "I"),
        ("Z", "Z"): (0, "I"),
    }
    for (a, b), (exponent, product) in table.items():
        e, s = PauliString.from_label(a).compose(PauliString.from_label(b))
        assert (e, s.label) == (exponent, product)


def test_composition_matches_dense_oracle():
    rng = np.random.default_rng(7)
    for _ in range(60):
        n = int(rng.integers(1, 5))
        a = random_label(rng, n)
        b = random_label(rng, n)
        exponent, product = PauliString.from_label(a).compose(PauliString.from_label(b))
        lhs = pauli_label_matrix(a) @ pauli_label_matrix(b)
        rhs = PHASES[exponent] * pauli_label_matrix(product.label)
        assert np.allclose(lhs, rhs, atol=1e-14)


def test_commutation_matches_dense_oracle():
    rng = np.random.default_rng(8)
    for _ in range(60):
        n = int(rng.integers(1, 5))
        pa, pb = random_label(rng, n), random_label(rng, n)
        a, b = pauli_label_matrix(pa), pauli_label_matrix(pb)
        commutes = np.allclose(a @ b - b @ a, 0.0, atol=1e-14)
        assert PauliString.from_label(pa).commutes_with(PauliString.from_label(pb)) == commutes


def test_sum_and_product_match_dense_on_six_qubits():
    rng = np.random.default_rng(9)
    n = 6
    terms_a = {random_label(rng, n): complex(rng.normal(), rng.normal()) for _ in range(8)}
    terms_b = {random_label(rng, n): complex(rng.normal(), rng.normal()) for _ in range(8)}
    a = PauliSum.from_label_dict(terms_a)
    b = PauliSum.from_label_dict(terms_b)
    assert np.allclose(pauli_sum_matrix(a + b), pauli_sum_matrix(a) + pauli_sum_matrix(b), atol=1e-12)
    assert np.allclose(pauli_sum_matrix(a @ b), pauli_sum_matrix(a) @ pauli_sum_matrix(b), atol=1e-12)
    assert np.allclose(pauli_sum_matrix(2.5 * a), 2.5 * pauli_sum_matrix(a), atol=1e-12)


def test_coefficients_below_tolerance_are_pruned():
    op = PauliSum.from_label_dict({"X": 1e-13, "Z": 1.0})
    assert len(op) == 1
    assert op.coefficient(PauliString.from_label("X")) == 0.0


def test_merge_cancellation_prunes():
    x = PauliString.from_label("X")
    op = PauliSum.from_terms(1, [(x, 1.0), (x, -1.0)])
    assert op.is_zero


def test_prune_tolerance_constant():
    assert PRUNE_TOLERANCE == 1e-12
