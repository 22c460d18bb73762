"""FCIDUMP parsing, symmetry storage, and canonical emission."""

import hashlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcembed.integrals import (
    FcidumpError,
    IntegralSet,
    SymmetricTwoBody,
    canonical_classes,
    parse_fcidump,
    read_fcidump,
    write_fcidump,
)

from conftest import FIXTURE_DIR
from oracles import reference_from_dense, reference_set_many, reference_two_body_dense

H8 = Path(__file__).parent.parent / "bench" / "data" / "h8_sto3g.fcidump"
HEADER = " &FCI NORB=2,NELEC=2,MS2=0,\n  ORBSYM=1,1,\n  ISYM=1,\n &END\n"


def test_header_only_defaults():
    out = parse_fcidump(HEADER)
    assert out.n_orbitals == 2
    assert out.n_electrons == 2
    assert out.spin_2ms == 0
    assert out.core_energy == 0.0
    assert np.all(out.one_body == 0.0)
    assert out.two_body.get(0, 0, 0, 0) == 0.0


def test_two_body_line_and_symmetry():
    out = parse_fcidump(HEADER + "0.7137 1 1 1 1\n")
    assert out.two_body.get(0, 0, 0, 0) == 0.7137


def test_two_body_all_eight_permutations_agree():
    out = parse_fcidump(HEADER + "0.4321 1 2 1 2\n")
    p, q, r, s = 0, 1, 0, 1
    expected = 0.4321
    for a, b in ((p, q), (q, p)):
        for c, d in ((r, s), (s, r)):
            assert out.two_body.get(a, b, c, d) == expected
            assert out.two_body.get(c, d, a, b) == expected


def test_one_body_line_symmetric():
    out = parse_fcidump(HEADER + "-1.2563 1 1 0 0\n0.3 2 1 0 0\n")
    assert out.one_body[0, 0] == -1.2563
    assert out.one_body[1, 0] == 0.3
    assert out.one_body[0, 1] == 0.3


def test_core_energy_line():
    out = parse_fcidump(HEADER + "0.52917 0 0 0 0\n")
    assert out.core_energy == 0.52917


def test_duplicate_entries_last_wins():
    out = parse_fcidump(HEADER + "1.0 1 1 1 1\n2.0 1 1 1 1\n")
    assert out.two_body.get(0, 0, 0, 0) == 2.0


def symmetric_orders(p, q, r, s):
    """The 8 index orders of (pq|rs) under real-orbital permutational symmetry."""
    return [(a, b, c, d) for x, y in (((p, q), (r, s)), ((r, s), (p, q)))
            for a, b in (x, x[::-1]) for c, d in (y, y[::-1])]


@st.composite
def two_body_records(draw):
    """Records over at most 3 classes of up to 3 orbitals, each written in
    any of its 8 index orders, so one class repeats in different orders."""
    n = draw(st.integers(1, 3))
    index = st.integers(0, n - 1)
    classes = draw(st.lists(st.tuples(index, index, index, index), min_size=1, max_size=3))
    value = st.one_of(st.floats(-1.0, 1.0), st.sampled_from([0.0, -0.0, 0.5]))
    records = []
    for _ in range(draw(st.integers(0, 12))):
        order = draw(st.sampled_from(symmetric_orders(*draw(st.sampled_from(classes)))))
        records.append((order, draw(value)))
    return n, records


@given(two_body_records())
@settings(max_examples=200, deadline=None)
def test_repeated_classes_in_any_order_are_the_record_by_record_sets(case):
    n, records = case
    header = f" &FCI NORB={n},NELEC=2,MS2=0,\n &END\n"
    text = header + "".join(f"{value!r} {p + 1} {q + 1} {r + 1} {s + 1}\n" for (p, q, r, s), value in records)
    expected = SymmetricTwoBody(n)
    for (p, q, r, s), value in records:
        expected.set(p, q, r, s, value)
    parsed = parse_fcidump(text).two_body
    assert parsed.canonical_vector().tobytes() == expected.canonical_vector().tobytes()


@given(
    n=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
    values=st.lists(st.sampled_from([0.0, -0.0, 0.5, -0.25, 1e-300]), min_size=8, max_size=40),
)
@settings(max_examples=200, deadline=None)
def test_set_many_keeps_the_last_row_of_each_class_as_the_dict_does(n, seed, values):
    """Classes written in all 8 of their index orders, shuffled, with
    -0.0 among the values: the stored vector has the dict version's bits."""
    rng = np.random.default_rng(seed)
    classes = [tuple(rng.integers(0, n, size=4)) for _ in range(len(values) // 8)]
    rows = np.array([order for c in classes for order in symmetric_orders(*c)], dtype=np.intp)
    rows = rows[rng.permutation(len(rows))]
    values = values[: len(rows)]
    actual, expected = SymmetricTwoBody(n), SymmetricTwoBody(n)
    actual.set_many(rows, values)
    reference_set_many(expected, rows, values)
    assert actual._values.tobytes() == expected._values.tobytes()


def test_negative_zero_record_overwrites_to_positive_zero():
    out = parse_fcidump(HEADER + "0.5 2 1 2 1\n-0.0 1 2 1 2\n-0.0 1 1 2 2\n0.25 2 2 1 1\n-0.0 1 1 2 2\n")
    assert out.two_body.canonical_vector().tobytes() == np.zeros(6).tobytes()
    assert len(out.two_body) == 0
    assert write_fcidump(out) == write_fcidump(parse_fcidump(HEADER))


def test_set_many_refuses_an_index_out_of_range():
    with pytest.raises(IndexError, match=r"\(0, 0, 2, 0\)"):
        SymmetricTwoBody(2).set_many(np.array([[0, 0, 0, 0], [0, 0, 2, 0]]), [1.0, 2.0])


def test_orbital_energy_records_ignored():
    # skipped before the finite check, so a non-finite one is ignored too
    for value in ("-0.5", "nan", "inf"):
        out = parse_fcidump(HEADER + f"{value} 1 0 0 0\n")
        assert np.all(out.one_body == 0.0) and out.core_energy == 0.0


def test_whitespace_separated_header():
    out = parse_fcidump(" &FCI NORB=3 NELEC=4 MS2=0\n &END\n")
    assert out.n_orbitals == 3
    assert out.n_electrons == 4


def test_slash_terminated_header():
    out = parse_fcidump("&FCI NORB=1,NELEC=2,MS2=0\n/\n0.5 1 1 0 0\n")
    assert out.one_body[0, 0] == 0.5


def test_missing_norb_is_error_with_line_number():
    with pytest.raises(FcidumpError, match="NORB") as err:
        parse_fcidump(" &FCI NELEC=2,MS2=0\n &END\n")
    assert err.value.line_number == 1


def test_missing_nelec_is_error():
    with pytest.raises(FcidumpError, match="NELEC"):
        parse_fcidump(" &FCI NORB=2\n &END\n")


def test_index_out_of_bounds():
    with pytest.raises(FcidumpError, match=r"index 3 outside"):
        parse_fcidump(HEADER + "1.0 3 1 0 0\n")


def test_non_numeric_value_field():
    with pytest.raises(FcidumpError, match="non-numeric") as err:
        parse_fcidump(HEADER + "abc 1 1 0 0\n")
    assert err.value.line_number == 5


def test_fortran_d_exponent_accepted():
    out = parse_fcidump(HEADER + "1.5D-01 1 1 0 0\n")
    assert out.one_body[0, 0] == 0.15


def test_write_empty_one_orbital_set():
    integrals = IntegralSet.from_arrays(np.zeros((1, 1)), np.zeros((1, 1, 1, 1)), 0.0, 2)
    text = write_fcidump(integrals)
    data_lines = [l for l in text.splitlines() if not l.lstrip().startswith(("&", "O", "I"))]
    assert data_lines == [" 0.0 0 0 0 0"]


def test_write_emits_one_line_per_symmetry_class():
    two = SymmetricTwoBody(2)
    two.set(0, 1, 0, 1, 0.25)
    integrals = IntegralSet(2, 2, 0, 0.0, np.zeros((2, 2)), two)
    text = write_fcidump(integrals)
    hits = [l for l in text.splitlines() if "0.25" in l]
    assert len(hits) == 1
    assert hits[0].split()[1:] == ["2", "1", "2", "1"]


def test_roundtrip_is_bitwise_identity_on_fixtures(golden):
    for record in golden.values():
        integrals = read_fcidump(FIXTURE_DIR / record["file"])
        again = parse_fcidump(write_fcidump(integrals))
        assert again == integrals
        third = parse_fcidump(write_fcidump(again))
        assert third == integrals


def test_roundtrip_synthetic_random_set():
    rng = np.random.default_rng(11)
    n = 4
    h = rng.normal(size=(n, n))
    h = 0.5 * (h + h.T)
    two = SymmetricTwoBody(n)
    for _ in range(20):
        p, q, r, s = rng.integers(0, n, size=4)
        two.set(int(p), int(q), int(r), int(s), float(rng.normal()))
    original = IntegralSet(n, 4, 0, float(rng.normal()), h, two)
    assert parse_fcidump(write_fcidump(original)) == original


def test_symmetry_closure_random_permutations():
    rng = np.random.default_rng(5)
    n = 5
    two = SymmetricTwoBody(n)
    for _ in range(30):
        p, q, r, s = (int(x) for x in rng.integers(0, n, size=4))
        value = float(rng.normal())
        two.set(p, q, r, s, value)
        lookups = {
            two.get(p, q, r, s),
            two.get(q, p, r, s),
            two.get(p, q, s, r),
            two.get(q, p, s, r),
            two.get(r, s, p, q),
            two.get(s, r, p, q),
            two.get(r, s, q, p),
            two.get(s, r, q, p),
        }
        assert lookups == {value}


def test_parser_total_over_fixture_corpus(golden):
    for record in golden.values():
        integrals = read_fcidump(FIXTURE_DIR / record["file"])
        assert integrals.n_orbitals == record["n_orbitals"]
        assert integrals.n_electrons == record["n_electrons"]


def test_electron_capacity_invariant():
    with pytest.raises(ValueError, match="do not fit"):
        IntegralSet.from_arrays(np.zeros((1, 1)), np.zeros((1, 1, 1, 1)), 0.0, n_electrons=3)


@pytest.mark.parametrize("build", ["constructor", "from_arrays"])
def test_one_body_is_a_read_only_copy_of_the_callers_array(build):
    h = np.eye(2)
    if build == "constructor":
        integrals = IntegralSet(2, 2, 0, 0.0, h, SymmetricTwoBody(2))
    else:
        integrals = IntegralSet.from_arrays(h, np.zeros((2, 2, 2, 2)), n_electrons=2)
    assert integrals.one_body is not h
    assert h.flags.writeable
    h[0, 0] = 5.0
    assert integrals.one_body[0, 0] == 1.0
    assert not integrals.one_body.flags.writeable


def test_unrecognized_index_pattern():
    with pytest.raises(FcidumpError, match="unrecognized"):
        parse_fcidump(HEADER + "1.0 1 1 1 0\n")


@pytest.mark.parametrize("n", [0, 1, 2, 3, 5])
def test_canonical_vector_follows_canonical_classes(n):
    classes = canonical_classes(n)
    n_pairs = n * (n + 1) // 2
    assert len(set(classes)) == len(classes) == n_pairs * (n_pairs + 1) // 2
    assert classes == sorted(classes)
    rng = np.random.default_rng(n)
    two = SymmetricTwoBody(n)
    for p, q, r, s in np.ndindex(n, n, n, n):
        if rng.random() < 0.3:
            two.set(p, q, r, s, rng.normal())
    vector = two.canonical_vector()
    assert vector.tolist() == [two.get(*indices) for indices in classes]
    stored = [indices for indices, _ in two.items_canonical()]
    assert stored == [indices for indices, value in zip(classes, vector) if value != 0.0]


# a value that is exactly 0 about a third of the time
_INTEGRAL = st.one_of(
    st.just(0.0), st.floats(-50.0, 50.0, allow_nan=False), st.floats(-1e-8, 1e-8, allow_nan=False)
)


@st.composite
def symmetric_integral_sets(draw):
    """IntegralSets with n <= 5 built from a symmetric h and an
    8-fold-symmetric (pq|rs) tensor, exact zeros included."""
    n = draw(st.integers(1, 5))
    h = np.zeros((n, n))
    for p in range(n):
        for q in range(p + 1):
            h[p, q] = h[q, p] = draw(_INTEGRAL)
    eri = np.zeros((n, n, n, n))
    for p in range(n):
        for q in range(p + 1):
            for r in range(p + 1):
                for s in range(q + 1 if r == p else r + 1):
                    value = draw(_INTEGRAL)
                    for a, b in ((p, q), (q, p)):
                        for c, d in ((r, s), (s, r)):
                            eri[a, b, c, d] = eri[c, d, a, b] = value
    n_electrons = draw(st.integers(0, 2 * n))
    spin_2ms = draw(st.integers(-n_electrons, n_electrons))
    return IntegralSet.from_arrays(h, eri, draw(_INTEGRAL), n_electrons, spin_2ms)


@given(integrals=symmetric_integral_sets())
@settings(max_examples=60, deadline=None)
def test_roundtrip_is_bitwise_identity_on_random_symmetric_sets(integrals):
    assert parse_fcidump(write_fcidump(integrals)) == integrals


@st.composite
def two_body_sets(draw):
    """SymmetricTwoBody on n <= 6 orbitals, filled through ``set`` in any
    of the 8 index orders, exact zeros and overwrites included."""
    n = draw(st.integers(0, 6))
    two = SymmetricTwoBody(n)
    if n:
        index = st.integers(0, n - 1)
        for p, q, r, s, value in draw(st.lists(st.tuples(index, index, index, index, _INTEGRAL))):
            two.set(p, q, r, s, value)
    return two


@given(two_body_sets())
@settings(max_examples=80, deadline=None)
def test_dense_is_bitwise_the_permutation_loop(two):
    dense = two.dense()
    expected = reference_two_body_dense(two)
    assert dense.shape == expected.shape and dense.dtype == expected.dtype
    assert dense.tobytes() == expected.tobytes()


def test_dense_is_bitwise_the_permutation_loop_on_fixtures(golden):
    for record in golden.values():
        two = read_fcidump(FIXTURE_DIR / record["file"]).two_body
        assert two.dense().tobytes() == reference_two_body_dense(two).tobytes()


@given(
    n=st.integers(0, 5),
    seed=st.integers(0, 2**32 - 1),
    zero_fraction=st.sampled_from([0.0, 0.3, 1.0]),
    non_finite=st.booleans(),
)
@settings(max_examples=80, deadline=None)
def test_from_dense_is_the_class_loop_on_non_symmetric_tensors(n, seed, zero_fraction, non_finite):
    rng = np.random.default_rng(seed)
    tensor = rng.normal(size=(n,) * 4)
    tensor[rng.random(tensor.shape) < zero_fraction] = 0.0
    tensor[rng.random(tensor.shape) < 0.1] *= -0.0
    if non_finite:
        tensor[rng.random(tensor.shape) < 0.1] = rng.choice([np.nan, np.inf, -np.inf])
    two = SymmetricTwoBody.from_dense(tensor)
    expected = reference_from_dense(tensor)
    assert two.canonical_vector().tobytes() == expected.canonical_vector().tobytes()
    assert len(two) == len(expected)
    items, expected_items = list(two.items_canonical()), list(expected.items_canonical())
    assert [indices for indices, _ in items] == [indices for indices, _ in expected_items]
    assert np.array([v for _, v in items]).tobytes() == np.array([v for _, v in expected_items]).tobytes()
    assert (two == expected) == (not np.isnan(two.canonical_vector()).any())


def test_from_dense_is_the_class_loop_on_fixtures(golden):
    for record in golden.values():
        dense = read_fcidump(FIXTURE_DIR / record["file"]).two_body_dense
        two, expected = SymmetricTwoBody.from_dense(dense), reference_from_dense(dense)
        assert two.canonical_vector().tobytes() == expected.canonical_vector().tobytes()
        assert two == expected
        assert len(two) == len(expected)


def test_negative_zero_is_stored_as_positive_zero():
    two = SymmetricTwoBody(2)
    two.set(1, 0, 1, 0, 0.5)
    two.set(1, 0, 1, 0, -0.0)
    two.set(0, 0, 1, 1, -0.0)
    tensor = np.full((2, 2, 2, 2), -0.0)
    for stored in (two, SymmetricTwoBody.from_dense(tensor)):
        assert stored.canonical_vector().tobytes() == SymmetricTwoBody(2).canonical_vector().tobytes()
        assert stored.dense().tobytes() == np.zeros((2, 2, 2, 2)).tobytes()
        assert len(stored) == 0 and list(stored.items_canonical()) == []


def test_canonical_vector_is_a_copy():
    two = SymmetricTwoBody(2)
    two.set(1, 1, 0, 0, 0.25)
    before = two.canonical_vector()
    vector = two.canonical_vector()
    vector[:] = 7.0
    assert two.canonical_vector().tobytes() == before.tobytes()
    assert two.get(0, 0, 1, 1) == 0.25 and len(two) == 1


# SHA-1 of write_fcidump(read_fcidump(file)); a change of the two-body
# storage must not move the emitted text.
WRITTEN_SHA1 = {
    "h2_sto3g_0735.fcidump": "5421cceaa41f37df56f532350fd263be912da0ff",
    "h2_sto3g_1100.fcidump": "1c320d38377ce491d62e83c79cdbdd0e5db0088c",
    "h2_sto3g_1500.fcidump": "0f735832f672dea66a0c41fc856b05610d43154b",
    "h2o_sto3g.fcidump": "5b771bf3a2282ce3f30aff2ef56b1fa5d81c2a3c",
    "lih_sto3g.fcidump": "0c61630ca0e42edc248609399c04ea9c7ba02ad0",
    "h8_sto3g.fcidump": "8a8edfc5a63d9170e2e38fffd37541e1992aa9ef",
}


def test_written_text_is_fixed(golden):
    paths = [FIXTURE_DIR / record["file"] for record in golden.values()] + [H8]
    assert sorted(path.name for path in paths) == sorted(WRITTEN_SHA1)
    for path in paths:
        text = write_fcidump(read_fcidump(path))
        assert hashlib.sha1(text.encode()).hexdigest() == WRITTEN_SHA1[path.name], path.name


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("indices", ["0 0 0 0", "1 2 0 0", "2 1 2 1"], ids=["core", "one-body", "two-body"])
def test_non_finite_record_rejected(value, indices):
    with pytest.raises(FcidumpError, match="non-finite") as err:
        parse_fcidump(HEADER + "0.5 1 1 0 0\n" + f"{value} {indices}\n")
    assert err.value.line_number == 6
