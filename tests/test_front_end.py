"""The front end of every point (FCIDUMP parse -> RHF -> MO transform)
pinned bit for bit, and checked against its record-by-record and
einsum oracles."""

import hashlib
import json
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcembed.activespace import ActiveSpaceSpec, reduce_integrals, transform_to_mo_basis
from qcembed.integrals import FcidumpError, IntegralSet, SymmetricTwoBody, parse_fcidump, read_fcidump
from qcembed.meanfield import ScfError, solve_rhf

from conftest import FIXTURE_DIR, capture_mismatch
from oracles import (
    hartree_fock_determinant_energy, reference_parse_fcidump, reference_solve_rhf, reference_transform_to_mo_basis,
)

H8 = Path(__file__).parent.parent / "bench" / "data" / "h8_sto3g.fcidump"
FCIDUMPS = sorted(FIXTURE_DIR.glob("*.fcidump")) + [H8]
# Bounds of the machine-independent front-end check.  The RHF energy
# stops at |dE| < 1e-10, and the orbitals, to first order in the energy's
# error, at about its square root.  Everything else is an identity that
# holds to rounding (a few 1e-16 measured on SkylakeX and Haswell kernels).
E_HF_BOUND = 1e-9
ORBITAL_ENERGY_BOUND = 1e-5
ROUNDING_BOUND = 1e-12
# The (electrons, orbitals) window each system's frozen-core reduction is
# pinned at, by the file name's prefix.
ACTIVE_SPACES = {"h2": ActiveSpaceSpec(2, 2), "lih": ActiveSpaceSpec(2, 3), "h2o": ActiveSpaceSpec(4, 4), "h8": ActiveSpaceSpec(4, 6)}


def _digest(*parts) -> str:
    """SHA-256 over ``parts``: each array by dtype, shape, strides and
    bytes, each float by its hex form, anything else by its repr."""
    digest = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            digest.update(f"{part.dtype.str}{part.shape}{part.strides}".encode())
            digest.update(part.tobytes())
        elif isinstance(part, float):
            digest.update(part.hex().encode())
        else:
            digest.update(repr(part).encode())
    return digest.hexdigest()


def front_end_digests(path: Path) -> dict[str, str]:
    """Digests of the parsed integrals, the full mean-field result, the
    MO-basis integrals and the frozen-core reduction to the file's
    ``ACTIVE_SPACES`` window of one FCIDUMP file."""
    integrals = read_fcidump(path)
    mf = solve_rhf(integrals)
    h_mo, eri_mo = transform_to_mo_basis(integrals, mf.orbital_coefficients)
    active = reduce_integrals(integrals, mf, _active_space(path))
    return {
        "integrals": _digest(
            integrals.n_orbitals, integrals.n_electrons, integrals.spin_2ms, integrals.core_energy,
            integrals.one_body, integrals.two_body.canonical_vector(),
        ),
        "mean_field": _digest(
            mf.energy, mf.orbital_energies, mf.orbital_coefficients, mf.density,
            mf.converged, mf.iterations, np.array(mf.energy_history),
        ),
        "h_mo": _digest(h_mo),
        "eri_mo": _digest(eri_mo),
        "active": _digest(active.one_body_eff, active.two_body.canonical_vector(), active.inactive_energy),
    }


def _active_space(path: Path) -> ActiveSpaceSpec:
    return ACTIVE_SPACES[path.name.split("_")[0]]


def test_front_end_matches_its_digests():
    """Parse, RHF, MO transform and frozen-core reduction of every
    committed FCIDUMP give the bits in fixtures/front_end_digests.json (captured by dumping
    ``{path.name: front_end_digests(path) for path in FCIDUMPS}``)."""
    expected = json.loads((FIXTURE_DIR / "front_end_digests.json").read_text())
    assert sorted(expected) == sorted(path.name for path in FCIDUMPS)
    for path in FCIDUMPS:
        assert front_end_digests(path) == expected[path.name], capture_mismatch(path.name)


@pytest.mark.parametrize("path", FCIDUMPS, ids=lambda path: path.name)
def test_front_end_holds_on_any_blas_core(golden, path):
    """What the digests pin, at stated bounds that no BLAS kernel's
    rounding reaches: the RHF result converges to golden.json's e_hf
    (bench/data/references.json's for H8) and orbital energies, its
    orbitals are orthonormal with D = 2 C_occ C_occ^T of trace N, and
    the MO integrals are the einsum chain's on the same C, (pq|rs) with
    its 8-fold symmetry.  The parsed integrals need no such check:
    parsing is exact on every core."""
    integrals = read_fcidump(path)
    mf = solve_rhf(integrals)
    record = next((entry for entry in golden.values() if entry["file"] == path.name), None)
    if record is None:
        record = json.loads((H8.parent / "references.json").read_text())["h8_8e8o"]
    assert mf.converged
    assert abs(mf.energy - record["e_hf"]) <= E_HF_BOUND
    if "orbital_energies" in record:
        np.testing.assert_allclose(mf.orbital_energies, record["orbital_energies"], rtol=0, atol=ORBITAL_ENERGY_BOUND)
    c = mf.orbital_coefficients
    occupied = c[:, : integrals.n_electrons // 2]
    np.testing.assert_allclose(c.T @ c, np.eye(len(c)), rtol=0, atol=ROUNDING_BOUND)
    np.testing.assert_allclose(mf.density, 2 * occupied @ occupied.T, rtol=0, atol=ROUNDING_BOUND)
    assert abs(np.trace(mf.density) - integrals.n_electrons) <= ROUNDING_BOUND
    h_mo, eri_mo = transform_to_mo_basis(integrals, c)
    expected_h, expected_eri = reference_transform_to_mo_basis(integrals, c)
    np.testing.assert_allclose(h_mo, expected_h, rtol=0, atol=ROUNDING_BOUND)
    np.testing.assert_allclose(eri_mo, expected_eri, rtol=0, atol=ROUNDING_BOUND)
    for axes in ((1, 0, 2, 3), (0, 1, 3, 2), (2, 3, 0, 1)):  # with these, all 8 hold
        np.testing.assert_allclose(eri_mo, eri_mo.transpose(axes), rtol=0, atol=ROUNDING_BOUND)


@pytest.mark.parametrize("path", FCIDUMPS, ids=lambda path: path.name)
def test_frozen_core_split_holds_on_any_blas_core(path):
    """What the ``active`` digest pins, at a bound no BLAS kernel's
    rounding reaches: the frozen-core split is an identity, so the
    inactive energy plus the active Hartree-Fock determinant's energy is
    the mean-field energy (measured within 4.5e-15 Ha on SkylakeX)."""
    integrals = read_fcidump(path)
    mf = solve_rhf(integrals)
    spec = _active_space(path)
    active = reduce_integrals(integrals, mf, spec)
    split = active.inactive_energy + hartree_fock_determinant_energy(active, spec.n_active_electrons // 2)
    assert abs(split - mf.energy) <= ROUNDING_BOUND


def _parsed(parse, text: str):
    """Everything ``parse`` makes of ``text``: the integral set's fields
    as bytes, or the message and line number of its ``FcidumpError``."""
    try:
        out = parse(text)
    except FcidumpError as exc:
        return "error", str(exc), exc.line_number
    return (
        out.n_orbitals, out.n_electrons, out.spin_2ms, out.core_energy.hex(),
        out.one_body.tobytes(), out.two_body.canonical_vector().tobytes(),
    )


def _value_token(draw) -> str:
    value = draw(st.one_of(
        st.floats(allow_nan=False, allow_infinity=False),
        st.sampled_from([0.0, -0.0, 0.5, -1.25e-7, 1e-300]),
    ))
    style = draw(st.sampled_from(["repr", "E", "D", "d"]))
    if style == "repr":
        return repr(value)
    return f"{value:.10E}".replace("E", style)


def _malformed(draw, n: int) -> list[str]:
    """The fields of one record that the parser refuses."""
    kind = draw(st.sampled_from(
        ["count", "value", "index", "range", "finite", "pattern", "nul", "comment-after"]
    ))
    fields = ["0.5", "1", "1", "1", "1"]
    if kind == "count":
        return draw(st.sampled_from([fields[:4], fields + ["1"], fields[:1]]))
    if kind == "value":
        return [draw(st.sampled_from(["abc", "1.5e", "1.0.0", "0x10", "--1"]))] + fields[1:]
    if kind == "index":
        fields[draw(st.integers(1, 4))] = draw(st.sampled_from(["1.0", "x", "1e3", "0x1"]))
        return fields
    if kind == "range":
        fields[draw(st.integers(1, 4))] = draw(st.sampled_from([str(n + 1), "-1", "99999999999999999999"]))
        return fields
    if kind == "finite":
        indices = draw(st.sampled_from([["0", "0", "0", "0"], ["1", "1", "0", "0"], fields[1:]]))
        return [draw(st.sampled_from(["nan", "inf", "-inf", "NaN"]))] + indices
    if kind == "pattern":
        return ["0.5"] + draw(st.sampled_from([["0", "1", "0", "0"], ["1", "0", "1", "0"], ["1", "1", "1", "0"], ["0", "0", "1", "1"]]))
    if kind == "nul":
        return ["0.5\0", "1", "1", "0", "0"]
    return fields + ["!", "note"]


@st.composite
def fcidump_texts(draw):
    """FCIDUMP text over 1-4 orbitals: repeated two-body classes in any
    index order, (i j) and (j i) one-body duplicates, core and
    orbital-energy records (some NaN), comments, blank lines, commas,
    D/d exponents and CRLF endings, with a malformed record of each kind
    at a random line in some of them."""
    n = draw(st.integers(1, 4))
    index = st.integers(1, n)
    classes = draw(st.lists(st.tuples(index, index, index, index), min_size=1, max_size=4))
    pairs = draw(st.lists(st.tuples(index, index), min_size=1, max_size=3))
    lines = []
    for _ in range(draw(st.integers(0, 14))):
        kind = draw(st.sampled_from(["two", "two", "one", "core", "orbital", "comment", "blank"]))
        if kind == "comment":
            lines.append(draw(st.sampled_from(["! a comment", "# 1.0 1 1 1 1", "  !", "#"])))
            continue
        if kind == "blank":
            lines.append(draw(st.sampled_from(["", "   ", "\t"])))
            continue
        if kind == "two":
            p, q, r, s = draw(st.sampled_from(classes))
            (p, q), (r, s) = draw(st.permutations([(p, q), (r, s)]))
            p, q = draw(st.permutations([p, q]))
            indices = (p, q, *draw(st.permutations([r, s])))
        elif kind == "one":
            indices = (*draw(st.permutations(draw(st.sampled_from(pairs)))), 0, 0)
        elif kind == "core":
            indices = (0, 0, 0, 0)
        else:
            indices = (draw(index), 0, 0, 0)
        value = draw(st.sampled_from(["nan", "-inf"])) if kind == "orbital" and draw(st.booleans()) else _value_token(draw)
        lines.append([value] + [str(i) for i in indices])
    if draw(st.booleans()):
        lines.insert(draw(st.integers(0, len(lines))), _malformed(draw, n))
    separator = draw(st.sampled_from([" ", "  ", "\t", ",", ", "]))
    body = [
        line if isinstance(line, str)
        else draw(st.sampled_from(["", " "])) + separator.join(line) + draw(st.sampled_from(["", ",", " "]))
        for line in lines
    ]
    header = draw(st.sampled_from([
        f" &FCI NORB={n},NELEC=2,MS2=0,\n  ORBSYM={'1,' * n}\n  ISYM=1,\n &END",
        f"&FCI NORB={n} NELEC=2\n/",
    ]))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return newline.join([header] + body) + draw(st.sampled_from(["", newline]))


@given(fcidump_texts())
@settings(max_examples=500, deadline=None)
def test_parse_is_the_record_by_record_parser(text):
    assert _parsed(parse_fcidump, text) == _parsed(reference_parse_fcidump, text)


@given(fcidump_texts(), st.integers(1, 3))
@settings(max_examples=300, deadline=None)
def test_parse_in_small_chunks_is_the_record_by_record_parser(text, chunk):
    """Chunks of 1-3 records put chunk boundaries between records, comments
    and malformed lines; the bits, the errors and their lines stay."""
    with mock.patch("qcembed.integrals._RECORD_CHUNK", chunk):
        assert _parsed(parse_fcidump, text) == _parsed(reference_parse_fcidump, text)


@st.composite
def integral_sets(draw):
    """Random closed-shell integral sets of 1-8 orbitals."""
    n = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    h = rng.normal(size=(n, n))
    two = SymmetricTwoBody(n)
    two._values = draw(st.sampled_from([0.0, 0.05, 0.5])) * rng.normal(size=two._values.shape)
    n_electrons = 2 * draw(st.integers(0, n))
    return IntegralSet(n, n_electrons, 0, float(rng.normal()), h + h.T, two)


def _solved(solve, integrals, **options):
    try:
        mf = solve(integrals, **options)
    except ScfError as exc:
        return f"ScfError: {exc}"
    return _digest(
        mf.energy, mf.orbital_energies, mf.orbital_coefficients, mf.density,
        mf.converged, mf.iterations, np.array(mf.energy_history),
    )


@given(integral_sets(), st.sampled_from([0.5, 1.0]), st.sampled_from([1, 100]))
@settings(max_examples=150, deadline=None)
def test_solve_rhf_is_the_reference_on_random_sets(integrals, mixing, max_iter):
    options = {"mixing": mixing, "max_iter": max_iter}
    assert _solved(solve_rhf, integrals, **options) == _solved(reference_solve_rhf, integrals, **options)


@given(integral_sets(), st.integers(0, 2**32 - 1), st.booleans())
@settings(max_examples=150, deadline=None)
def test_transform_is_the_einsum_chain_on_random_sets(integrals, seed, rectangular):
    n = integrals.n_orbitals
    rng = np.random.default_rng(seed)
    coefficients = rng.normal(size=(n, rng.integers(1, n + 1) if rectangular else n))
    (h_mo, eri_mo), (expected_h, expected_eri) = (
        transform_to_mo_basis(integrals, coefficients),
        reference_transform_to_mo_basis(integrals, coefficients),
    )
    assert _digest(h_mo) == _digest(expected_h)
    if n > 1:
        assert _digest(eri_mo) == _digest(expected_eri)
    else:
        # einsum multiplies out a one-orbital tensor, where the 1 x 1 matmul
        # adds its one product to +0.0: the same values, but a -0.0 reads +0.0
        assert np.array_equal(eri_mo, expected_eri) and eri_mo.strides == expected_eri.strides
