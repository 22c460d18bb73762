"""Restricted mean-field solver against closed forms and the fixture oracle."""

from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from qcembed import meanfield
from qcembed.integrals import IntegralSet, SymmetricTwoBody, read_fcidump
from qcembed.meanfield import (
    MeanFieldResult,
    ScfError,
    _fix_eigenvector_signs,
    build_fock,
    solve_rhf,
)

from oracles import reference_fix_eigenvector_signs, reference_solve_rhf

FIXTURES = Path(__file__).parent / "fixtures"
H8 = Path(__file__).parent.parent / "bench" / "data" / "h8_sto3g.fcidump"
SYSTEMS = {
    "h2_0735": FIXTURES / "h2_sto3g_0735.fcidump",
    "h2_1100": FIXTURES / "h2_sto3g_1100.fcidump",
    "h2_1500": FIXTURES / "h2_sto3g_1500.fcidump",
    "lih": FIXTURES / "lih_sto3g.fcidump",
    "h2o": FIXTURES / "h2o_sto3g.fcidump",
    "h8": H8,
}
SOLVE_OPTIONS = {
    "mixing-0.3": {"mixing": 0.3},
    "mixing-0.5": {"mixing": 0.5},
    "mixing-1.0": {"mixing": 1.0},
    "max-iter-1": {"max_iter": 1},
}


@lru_cache(maxsize=None)
def load(name: str) -> IntegralSet:
    return read_fcidump(SYSTEMS[name])


def assert_bitwise_array(actual: np.ndarray, expected: np.ndarray):
    assert actual.dtype == expected.dtype and actual.shape == expected.shape
    assert actual.strides == expected.strides
    assert actual.tobytes() == expected.tobytes()


def assert_bitwise_result(actual: MeanFieldResult, expected: MeanFieldResult):
    assert_bitwise_array(actual.orbital_energies, expected.orbital_energies)
    assert_bitwise_array(actual.orbital_coefficients, expected.orbital_coefficients)
    assert_bitwise_array(actual.density, expected.density)
    assert_bitwise_array(np.array(actual.energy), np.array(expected.energy))
    assert_bitwise_array(np.array(actual.energy_history), np.array(expected.energy_history))
    assert_bitwise_array(np.array(actual.orbital_gradient), np.array(expected.orbital_gradient))
    assert type(actual.energy) is type(expected.energy)
    assert actual.converged is expected.converged
    assert actual.iterations == expected.iterations


def outcome(solve, integrals: IntegralSet, **options):
    """The solver's result, or the text of the ``ScfError`` it raised."""
    try:
        return solve(integrals, **options)
    except ScfError as exc:
        return f"ScfError: {exc}"



def _one_orbital_set(h11=-1.1, v1111=0.6, core=0.4):
    two = SymmetricTwoBody(1)
    two.set(0, 0, 0, 0, v1111)
    return IntegralSet(1, 2, 0, core, np.array([[h11]]), two)


def test_zero_density_gives_core_hamiltonian(h2_integrals):
    fock = build_fock(h2_integrals, np.zeros((2, 2)))
    assert np.allclose(fock, h2_integrals.one_body, atol=0)


def test_one_orbital_fock_closed_form():
    integrals = _one_orbital_set()
    fock = build_fock(integrals, np.array([[2.0]]))
    # F_11 = h_11 + 2(11|11) - (11|11)
    assert fock[0, 0] == pytest.approx(-1.1 + 0.6, abs=1e-14)


def test_one_orbital_energy_closed_form_in_one_iteration():
    integrals = _one_orbital_set()
    result = solve_rhf(integrals)
    assert result.converged
    assert result.iterations == 1
    assert result.energy == pytest.approx(2 * -1.1 + 0.6 + 0.4, abs=1e-12)


def test_h2_energy_matches_oracle(golden, h2_integrals):
    result = solve_rhf(h2_integrals)
    assert result.converged
    assert result.energy == pytest.approx(golden["h2_0735"]["e_hf"], abs=1e-8)
    # literature anchor for H2/STO-3G near equilibrium
    assert result.energy == pytest.approx(-1.1167, abs=5e-4)


def test_h2_fock_reproduces_oracle_orbital_energies(golden, h2_integrals):
    result = solve_rhf(h2_integrals)
    expected = np.array(golden["h2_0735"]["orbital_energies"])
    assert np.allclose(result.orbital_energies, expected, atol=1e-6)


def test_h2o_and_lih_energies_match_oracle(golden, lih_integrals, h2o_integrals):
    for record, integrals in ((golden["lih"], lih_integrals), (golden["h2o"], h2o_integrals)):
        result = solve_rhf(integrals)
        assert result.converged
        assert result.energy == pytest.approx(record["e_hf"], abs=1e-8)


# max |F D - D F| at the returned density, measured with build_fock
ORBITAL_GRADIENTS = {"lih": 1.85e-6, "h2o": 3.24e-7, "h8": 3.02e-7, "h2_0735": 0.0}


@pytest.mark.parametrize("name", ORBITAL_GRADIENTS)
def test_orbital_gradient_records_how_far_the_rhf_converged(name):
    """Within a factor of 2 of the value measured with ``build_fock``; the
    minimal-basis H2 orbitals are fixed by symmetry, so its gradient is
    exactly 0.  A result built by hand has none."""
    integrals = load(name)
    result = solve_rhf(integrals)
    fock, density = build_fock(integrals, result.density), result.density
    assert result.orbital_gradient == pytest.approx(np.abs(fock @ density - density @ fock).max(), rel=1e-6)
    expected = ORBITAL_GRADIENTS[name]
    assert expected / 2 <= result.orbital_gradient <= 2 * expected
    fields = {"energy", "orbital_energies", "orbital_coefficients", "density", "converged", "iterations"}
    assert np.isnan(MeanFieldResult(**{key: getattr(result, key) for key in fields}).orbital_gradient)


def test_density_invariants(h2o_integrals):
    result = solve_rhf(h2o_integrals)
    d = result.density
    assert abs(np.trace(d) - h2o_integrals.n_electrons) < 1e-10
    assert np.allclose(d, d.T, atol=1e-12)
    assert np.linalg.norm(d @ d - 2 * d) < 1e-8
    c = result.orbital_coefficients
    assert np.linalg.norm(c.T @ c - np.eye(c.shape[0])) < 1e-10


def test_non_convergence_flagged_not_raised(h2o_integrals):
    result = solve_rhf(h2o_integrals, max_iter=1, tol=1e-12)
    assert isinstance(result, MeanFieldResult)
    assert not result.converged


def test_energy_monotone_up_to_mixing_noise(h2o_integrals):
    tol = 1e-10
    result = solve_rhf(h2o_integrals, tol=tol)
    history = result.energy_history
    for before, after in zip(history, history[1:]):
        assert after <= before + tol * 10


def test_energy_invariant_under_orbital_permutation(lih_integrals):
    rng = np.random.default_rng(3)
    n = lih_integrals.n_orbitals
    perm = rng.permutation(n)
    h = lih_integrals.one_body[np.ix_(perm, perm)]
    eri = lih_integrals.two_body_dense[np.ix_(perm, perm, perm, perm)]
    permuted = IntegralSet.from_arrays(
        h, eri, lih_integrals.core_energy, lih_integrals.n_electrons
    )
    e_ref = solve_rhf(lih_integrals).energy
    e_perm = solve_rhf(permuted).energy
    assert e_perm == pytest.approx(e_ref, abs=1e-8)


def test_odd_electron_count_rejected():
    integrals = IntegralSet.from_arrays(np.zeros((2, 2)), np.zeros((2, 2, 2, 2)), 0.0, 3)
    with pytest.raises(ScfError, match="even electron count"):
        solve_rhf(integrals)


def test_degenerate_homo_aborts_with_diagnostic():
    # two identical decoupled orbitals, two electrons: HOMO == LUMO
    integrals = IntegralSet.from_arrays(-np.eye(2), np.zeros((2, 2, 2, 2)), 0.0, 2)
    with pytest.raises(ScfError, match="degenerate HOMO"):
        solve_rhf(integrals)


def test_dimension_mismatch_rejected(h2_integrals):
    with pytest.raises(ScfError, match="density shape"):
        build_fock(h2_integrals, np.zeros((3, 3)))


@pytest.mark.parametrize("options", SOLVE_OPTIONS.values(), ids=SOLVE_OPTIONS.keys())
@pytest.mark.parametrize("name", SYSTEMS)
def test_solve_rhf_is_bitwise_reference(name, options):
    integrals = load(name)
    assert_bitwise_result(solve_rhf(integrals, **options), reference_solve_rhf(integrals, **options))


def one_body_variant(base: IntegralSet, kind: str, seed: int, noise: float) -> IntegralSet:
    """``base`` with a randomly rotated one-body matrix: "perturbed" adds
    symmetric noise; "degenerate" makes the core guess's HOMO and LUMO
    coincide (noise would split them); "non-finite one-body" and
    "non-finite two-body" plant an inf in h and a NaN in (pq|rs)."""
    n, n_occ = base.n_orbitals, base.n_electrons // 2
    rng = np.random.default_rng(seed)
    rotation, _ = np.linalg.qr(rng.normal(size=(n, n)))
    if kind == "degenerate":
        levels = np.linalg.eigvalsh(base.one_body)
        levels[n_occ] = levels[n_occ - 1]
        one_body = rotation @ np.diag(levels) @ rotation.T
    else:
        perturbation = rng.normal(scale=noise, size=(n, n))
        one_body = rotation @ base.one_body @ rotation.T + perturbation + perturbation.T
    one_body = 0.5 * (one_body + one_body.T)
    if kind == "non-finite one-body":
        one_body[0, 0] = np.inf
    if kind != "non-finite two-body":
        return IntegralSet(n, base.n_electrons, base.spin_2ms, base.core_energy, one_body, base.two_body)
    # the core guess is finite, and the first Roothaan step's Fock is not
    eri = np.array(base.two_body_dense)
    eri[0, 0, 1, 1] = eri[1, 1, 0, 0] = np.nan
    return IntegralSet.from_arrays(one_body, eri, base.core_energy, base.n_electrons, base.spin_2ms)


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(["h2_0735", "h2_1500", "lih", "h2o"]),
    seed=st.integers(0, 2**32 - 1),
    noise=st.sampled_from([0.0, 1e-9, 1e-4, 1e-2]),
    degenerate=st.booleans(),
    mixing=st.sampled_from([0.5, 1.0]),
)
def test_solve_rhf_is_bitwise_reference_on_rotated_one_body(name, seed, noise, degenerate, mixing):
    integrals = one_body_variant(load(name), "degenerate" if degenerate else "perturbed", seed, noise)
    actual = outcome(solve_rhf, integrals, mixing=mixing)
    expected = outcome(reference_solve_rhf, integrals, mixing=mixing)
    if degenerate:
        assert isinstance(expected, str) and "degenerate HOMO" in expected
    if isinstance(expected, str):
        assert actual == expected
    else:
        assert_bitwise_result(actual, expected)


# scipy.linalg.eigh runs LAPACK dsyevr, np.linalg.eigh dsyevd: the routines
# round differently, by at most 6e-14 on these systems
LAPACK_TOLERANCE = 1e-12


@pytest.mark.parametrize("options", SOLVE_OPTIONS.values(), ids=SOLVE_OPTIONS.keys())
@pytest.mark.parametrize("name", SYSTEMS)
def test_solve_rhf_matches_scipy_eigh(name, options):
    integrals = load(name)
    actual = solve_rhf(integrals, **options)
    expected = reference_solve_rhf(integrals, eigh=scipy.linalg.eigh, **options)
    assert (actual.iterations, actual.converged) == (expected.iterations, expected.converged)
    assert abs(actual.energy - expected.energy) <= LAPACK_TOLERANCE
    np.testing.assert_allclose(actual.energy_history, expected.energy_history, rtol=0, atol=LAPACK_TOLERANCE)
    np.testing.assert_allclose(actual.orbital_energies, expected.orbital_energies, rtol=0, atol=LAPACK_TOLERANCE)
    # orbitals of a degenerate level may rotate; the density may not
    np.testing.assert_allclose(actual.density, expected.density, rtol=0, atol=LAPACK_TOLERANCE)


def spy_on_eigh(monkeypatch) -> list[np.ndarray]:
    """Record every matrix handed to ``np.linalg.eigh`` (LAPACK)."""
    seen = []
    eigh = np.linalg.eigh

    def recording_eigh(a, *args, **kwargs):
        seen.append(np.array(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", recording_eigh)
    return seen


def test_eigh_is_called_once_per_roothaan_step(monkeypatch):
    seen = spy_on_eigh(monkeypatch)
    result = solve_rhf(load("lih"))
    # core guess + one per Roothaan step + the final canonicalisation
    assert len(seen) == result.iterations + 2


@pytest.mark.parametrize("options", SOLVE_OPTIONS.values(), ids=SOLVE_OPTIONS.keys())
@pytest.mark.parametrize("name", SYSTEMS)
def test_signs_are_fixed_once_on_the_returned_orbitals(monkeypatch, name, options):
    calls = []
    fix = meanfield._fix_eigenvector_signs

    def counting_fix(vectors):
        calls.append(fix(vectors))
        return calls[-1]

    monkeypatch.setattr(meanfield, "_fix_eigenvector_signs", counting_fix)
    result = solve_rhf(load(name), **options)
    assert len(calls) == 1
    assert result.orbital_coefficients is calls[0]


def test_infinite_one_body_rejected_before_lapack(monkeypatch):
    one_body = np.diag([-1.0, np.inf])
    integrals = IntegralSet.from_arrays(one_body, np.zeros((2, 2, 2, 2)), 0.0, 2)
    seen = spy_on_eigh(monkeypatch)
    with pytest.raises(ValueError, match="infs or NaNs"):
        solve_rhf(integrals)
    assert seen == []
    with pytest.raises(ValueError, match="infs or NaNs"):
        reference_solve_rhf(integrals)


def _set_through_set(bad):
    two = SymmetricTwoBody(2)
    two.set(1, 0, 1, 0, 0.2)
    two.set(0, 0, 1, 1, bad)
    return IntegralSet(2, 2, 0, 0.0, np.diag([-1.0, -0.5]), two)


def _set_through_from_arrays(bad):
    eri = np.zeros((2, 2, 2, 2))
    eri[0, 0, 1, 1] = eri[1, 1, 0, 0] = bad
    integrals = IntegralSet.from_arrays(np.diag([-1.0, -0.5]), eri, 0.0, 2)
    # the non-finite entry is kept, not dropped as a zero
    assert len(integrals.two_body) == 1
    return integrals


@pytest.mark.parametrize(
    "bad, build",
    [
        pytest.param(bad, build, id=f"{bad}{suffix}")
        for build, suffix in ((_set_through_set, ""), (_set_through_from_arrays, "-from_arrays"))
        for bad in (np.nan, np.inf, -np.inf)
    ],
)
def test_non_finite_fock_rejected_before_lapack(monkeypatch, bad, build):
    integrals = build(bad)
    # inf times a zero density entry is NaN; numpy warns about it on the way
    with np.errstate(invalid="ignore"):
        with pytest.raises(ValueError, match="infs or NaNs"):
            reference_solve_rhf(integrals)
        seen = spy_on_eigh(monkeypatch)
        with pytest.raises(ValueError, match="infs or NaNs"):
            solve_rhf(integrals)
    # only the finite core guess reached LAPACK
    assert len(seen) == 1 and np.isfinite(seen[0]).all()


@settings(max_examples=200, deadline=None)
@given(
    rows=st.integers(1, 7),
    cols=st.integers(1, 7),
    seed=st.integers(0, 2**32 - 1),
    fortran=st.booleans(),
)
def test_vectorised_sign_fix_matches_column_loop(rows, cols, seed, fortran):
    rng = np.random.default_rng(seed)
    # Few distinct magnitudes give exact ties in |v|, signed zeros included.
    pool = np.array([-1.0, -0.5, -0.0, 0.0, 0.5, 1.0])
    vectors = np.where(
        rng.random((rows, cols)) < 0.7, rng.choice(pool, size=(rows, cols)), rng.normal(size=(rows, cols))
    )
    vectors[:, rng.random(cols) < 0.2] = 0.0
    vectors[:, rng.random(cols) < 0.2] = -0.0
    if fortran:
        vectors = np.asfortranarray(vectors)
    before = vectors.copy(order="K")
    assert_bitwise_array(_fix_eigenvector_signs(vectors), reference_fix_eigenvector_signs(vectors))
    assert_bitwise_array(vectors, before)


def test_sign_fix_ties_go_to_the_lower_row():
    vectors = np.array([[-0.5, 0.5, -0.0, 0.0], [0.5, -0.5, -0.0, -0.0]])
    fixed = _fix_eigenvector_signs(vectors)
    assert_bitwise_array(fixed, np.array([[0.5, 0.5, -0.0, 0.0], [-0.5, -0.5, -0.0, -0.0]]))


# -- one Roothaan loop over a stack of same-shape systems ----------------------


def lone_outcome(integrals: IntegralSet, **options):
    """``reference_solve_rhf``'s result, or the type and text of what it raised."""
    try:
        return reference_solve_rhf(integrals, **options)
    except (ScfError, ValueError) as exc:
        return type(exc), str(exc)


def eigh_rows(seen: list[np.ndarray], n: int) -> list[bytes]:
    """Every matrix that reached LAPACK, one per stacked row, sorted."""
    return sorted(row.tobytes() for matrix in seen for row in matrix.reshape(-1, n, n))


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(["h2_0735", "h2_1500", "lih", "h2o"]),
    members=st.lists(
        st.tuples(
            st.sampled_from(["perturbed", "perturbed", "degenerate", "non-finite one-body", "non-finite two-body"]),
            st.integers(0, 2**32 - 1),
            st.sampled_from([0.0, 1e-9, 1e-4, 1e-2]),
        ),
        min_size=1,
        max_size=6,
    ),
    mixing=st.sampled_from([0.5, 1.0]),
    max_iter=st.sampled_from([1, 2, 5, 100]),
)
def test_stacked_solve_is_each_members_lone_solve(name, members, mixing, max_iter):
    base = load(name)
    systems = [one_body_variant(base, *member) for member in members]
    assert_stack_is_lone_solves(systems, mixing=mixing, max_iter=max_iter)


@pytest.mark.parametrize("name, max_iter", [("h2_0735", 5), ("lih", 30)])
def test_members_stopped_by_max_iter_close_after_converged_ones(name, max_iter):
    """h2_0735 converges in 1 step and LiH's first perturbed copy in 29;
    the other copies still step until ``max_iter``, then close."""
    base = load(name)
    systems = [base] + [one_body_variant(base, "perturbed", seed, 1e-2) for seed in range(5)]
    results = assert_stack_is_lone_solves(systems, max_iter=max_iter)
    assert min(result.iterations for result in results if result.converged) < max_iter
    assert any(result.iterations == max_iter and not result.converged for result in results)


def assert_stack_is_lone_solves(systems: list[IntegralSet], **options) -> list:
    """``_solve_stack(systems)``, asserted member by member to be the lone
    solve's result bit for bit, or its exception and message."""
    expected, seen_lone = [], []
    with np.errstate(invalid="ignore", over="ignore"), pytest.MonkeyPatch.context() as patch:
        for integrals in systems:
            seen = spy_on_eigh(patch)
            expected.append(lone_outcome(integrals, **options))
            seen_lone.append(seen)
            patch.undo()
        seen_stacked = spy_on_eigh(patch)
        actual = meanfield._solve_stack(systems, **options)
    assert len(actual) == len(systems)
    for result, lone in zip(actual, expected):
        if isinstance(lone, tuple):
            assert (type(result), str(result)) == lone
        else:
            assert_bitwise_result(result, lone)
    # Each member's rows reach LAPACK exactly as its lone solve's matrices
    # do: a member that was closed or failed took no further step.
    n = systems[0].n_orbitals
    assert eigh_rows(seen_stacked, n) == eigh_rows([m for seen in seen_lone for m in seen], n)
    # one call per step for the whole stack: as many as the longest lone solve makes
    assert len(seen_stacked) == max(map(len, seen_lone))
    return actual


def test_stacked_solve_makes_one_eigh_call_per_step(monkeypatch):
    base = load("lih")
    systems = [one_body_variant(base, "perturbed", seed, 1e-2) for seed in range(5)]
    seen = spy_on_eigh(monkeypatch)
    results = meanfield._solve_stack(systems)
    iterations = [result.iterations for result in results]
    assert len(set(iterations)) > 1
    # core guess + one per step of the longest solve + the step that closes it
    assert len(seen) == max(iterations) + 2
    # a member that stops at step s is closed, on its last Fock matrix, by step s + 1
    assert [len(matrices) for matrices in seen] == [5] + [
        sum(it >= step - 1 for it in iterations) for step in range(1, max(iterations) + 2)
    ]


def test_stack_of_one_shape_only():
    with pytest.raises(ScfError, match="one \\(n_orbitals, n_electrons\\) shape"):
        meanfield._solve_stack([load("h2_0735"), load("lih")])
    assert meanfield._solve_stack([]) == []
