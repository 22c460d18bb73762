"""One physical system, one answer: the whole pipeline under a change of
orbital basis and over non-interacting fragments.

A real orthogonal U turns the integrals into those of the same system in
another orbital basis, h -> U^T h U and (pq|rs) likewise; the RHF
energy and the embedded energies must not move.  Two fragments joined in
one block-diagonal system, with no integral between them, must give the
sum of their energies (size consistency).  Every system is built in
memory from the committed FCIDUMPs.
"""

import functools
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcembed.activespace import ActiveSpaceSpec, reduce_integrals
from qcembed.embedding import EmbeddingConfig, run_embedding
from qcembed.fci import fci_solve
from qcembed.integrals import IntegralSet, read_fcidump
from qcembed.meanfield import solve_rhf
from qcembed.vqe import VqeConfig

from conftest import FIXTURE_DIR
from oracles import reference_transform_to_mo_basis

H8 = Path(__file__).parent.parent / "bench" / "data" / "h8_sto3g.fcidump"
SYSTEMS = {
    "lih": (FIXTURE_DIR / "lih_sto3g.fcidump", ActiveSpaceSpec(2, 3)),
    "h2o": (FIXTURE_DIR / "h2o_sto3g.fcidump", ActiveSpaceSpec(4, 4)),
    "h8": (H8, ActiveSpaceSpec(4, 6)),
}
# Hartree: RHF and FCI energies of one system given in two orbital bases,
# or as fragments and as their union (at most 9.9e-14 measured)
EXACT = 1e-12

bases = st.tuples(st.sampled_from(["permutation", "signs", "rotation", "all"]), st.integers(0, 2**32 - 1))


@functools.cache
def _integrals(path: Path) -> IntegralSet:
    return read_fcidump(path)


def _orthogonal(n: int, kind: str, seed: int) -> np.ndarray:
    """A seeded n x n orthogonal matrix: a permutation, sign flips, a
    Haar-random rotation, or all three composed."""
    rng = np.random.default_rng(seed)
    u = np.eye(n)
    if kind in ("permutation", "all"):
        u = u[:, rng.permutation(n)]
    if kind in ("signs", "all"):
        u = u * rng.choice([-1.0, 1.0], size=n)
    if kind in ("rotation", "all"):
        q, r = np.linalg.qr(rng.standard_normal((n, n)))
        u = u @ (q * np.sign(np.diag(r)))
    return u


def _rotated(integrals: IntegralSet, u: np.ndarray) -> IntegralSet:
    h, eri = reference_transform_to_mo_basis(integrals, u)
    return IntegralSet.from_arrays(h, eri, integrals.core_energy, integrals.n_electrons, integrals.spin_2ms)


def _joined(a: IntegralSet, b: IntegralSet) -> IntegralSet:
    """``a`` and ``b`` as one system of two fragments with no integral
    between them: block-diagonal h and (pq|rs)."""
    n = a.n_orbitals + b.n_orbitals
    h = np.zeros((n, n))
    eri = np.zeros((n,) * 4)
    for fragment, block in ((a, slice(0, a.n_orbitals)), (b, slice(a.n_orbitals, n))):
        h[block, block] = fragment.one_body
        eri[block, block, block, block] = fragment.two_body_dense
    return IntegralSet.from_arrays(h, eri, a.core_energy + b.core_energy, a.n_electrons + b.n_electrons)


def _embed(integrals: IntegralSet, spec: ActiveSpaceSpec, solver: str) -> float:
    return run_embedding(integrals, spec, EmbeddingConfig(active_solver=solver)).final_energy


def _full_fci(integrals: IntegralSet) -> float:
    spec = ActiveSpaceSpec(integrals.n_electrons, integrals.n_orbitals)
    active = reduce_integrals(integrals, solve_rhf(integrals), spec)
    return fci_solve(active).ground_energy + active.inactive_energy


@functools.cache
def _reference(name: str, solver: str) -> float:
    path, spec = SYSTEMS[name]
    return solve_rhf(_integrals(path)).energy if solver == "rhf" else _embed(_integrals(path), spec, solver)


@given(name=st.sampled_from(sorted(SYSTEMS)), basis=bases)
@settings(max_examples=30, deadline=None)
def test_rhf_and_fci_embed_hold_under_a_change_of_basis(name, basis):
    path, spec = SYSTEMS[name]
    integrals = _integrals(path)
    rotated = _rotated(integrals, _orthogonal(integrals.n_orbitals, *basis))
    assert abs(solve_rhf(rotated).energy - _reference(name, "rhf")) <= EXACT
    assert abs(_embed(rotated, spec, "fci") - _reference(name, "fci")) <= EXACT


@given(name=st.sampled_from(["lih", "h2o"]), basis=bases)
@settings(max_examples=15, deadline=None)
def test_vqe_embed_holds_under_a_change_of_basis_to_its_tolerance(name, basis):
    """UCCSD's optimum does not depend on the basis, but the seeded start
    and the L-BFGS-B path follow the signs that RHF fixes on the
    molecular orbitals, and those follow the basis.  So the VQE energy
    holds to the optimizer's tolerance, not bitwise (at most 1.4e-8
    measured)."""
    path, spec = SYSTEMS[name]
    integrals = _integrals(path)
    rotated = _rotated(integrals, _orthogonal(integrals.n_orbitals, *basis))
    assert abs(_embed(rotated, spec, "vqe") - _reference(name, "vqe")) <= VqeConfig().tolerance


FRAGMENTS = {
    "h2+h2": ("h2_sto3g_0735.fcidump", "h2_sto3g_1500.fcidump"),
    "lih+h2": ("lih_sto3g.fcidump", "h2_sto3g_0735.fcidump"),
}


@pytest.mark.parametrize("pair", FRAGMENTS)
def test_rhf_and_fci_are_additive_over_non_interacting_fragments(pair):
    a, b = (_integrals(FIXTURE_DIR / name) for name in FRAGMENTS[pair])
    joined = _joined(a, b)
    assert abs(solve_rhf(joined).energy - (solve_rhf(a).energy + solve_rhf(b).energy)) <= EXACT
    assert abs(_full_fci(joined) - (_full_fci(a) + _full_fci(b))) <= EXACT


def test_fci_embed_of_two_fragments_is_the_sum_of_theirs():
    """The (4e,4o) window of H2 + H2 holds both fragments' (2e,2o)
    spaces, so its embedded energy is the sum of theirs."""
    a, b = (_integrals(FIXTURE_DIR / name) for name in FRAGMENTS["h2+h2"])
    fragments = _embed(a, ActiveSpaceSpec(2, 2), "fci") + _embed(b, ActiveSpaceSpec(2, 2), "fci")
    assert abs(_embed(_joined(a, b), ActiveSpaceSpec(4, 4), "fci") - fragments) <= EXACT


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 11: a window edge that splits a degenerate orbital set takes the vectors "
    "eigh returns in that set, so its energy depends on the orbital basis (2.9e-2 to 4.1e-2 Ha "
    "above 2 E_FCI(H2) measured across these six bases)",
)
def test_window_splitting_degenerate_pairs_holds_under_a_change_of_basis():
    """Two identical H2 fragments have degenerate HOMO and LUMO pairs, and
    a (2e,2o) window takes one orbital of each pair."""
    h2 = _integrals(FIXTURE_DIR / "h2_sto3g_0735.fcidump")
    joined = _joined(h2, h2)
    energies = [
        _embed(_rotated(joined, _orthogonal(joined.n_orbitals, "rotation", seed)), ActiveSpaceSpec(2, 2), "fci")
        for seed in range(6)
    ]
    assert max(energies) - min(energies) <= EXACT
