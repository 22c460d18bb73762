"""The closed-shell CCSD reference (``oracles.reference_rhf_ccsd``), the
denominator of the paper's recovered-correlation figures, against the
FCI solver: exact for two electrons, and between HF and FCI, at its
recorded energies, on the committed molecules."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qcembed.activespace import ActiveSpaceSpec, reduce_integrals, transform_to_mo_basis
from qcembed.fci import fci_solve
from qcembed.integrals import IntegralSet, SymmetricTwoBody, read_fcidump
from qcembed.meanfield import solve_rhf

from conftest import FIXTURE_DIR
from oracles import reference_rhf_ccsd
from test_fci import BENCH_DATA


def _energies(integrals):
    """(RHF, CCSD, FCI) total energies over every orbital of ``integrals``."""
    mf = solve_rhf(integrals)
    h_mo, eri_mo = transform_to_mo_basis(integrals, mf.orbital_coefficients)
    reference, correlation = reference_rhf_ccsd(h_mo, eri_mo, integrals.n_electrons)
    active = reduce_integrals(integrals, mf, ActiveSpaceSpec(integrals.n_electrons, integrals.n_orbitals))
    fci = fci_solve(active).ground_energy + active.inactive_energy
    return mf, integrals.core_energy + reference + correlation, fci


@st.composite
def two_electron_sets(draw):
    """Two electrons in 1-5 orbitals: one-body levels 1-2 Ha apart in a
    random orthonormal basis, and random 8-fold-symmetric two-body
    integrals of scale 0.02-0.1 Ha."""
    n = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rotation, _ = np.linalg.qr(rng.normal(size=(n, n)))
    h = rotation @ np.diag(np.cumsum(rng.uniform(1.0, 2.0, size=n)) - 2.0) @ rotation.T
    two = SymmetricTwoBody(n)
    two._values = draw(st.sampled_from([0.02, 0.05, 0.1])) * rng.normal(size=two._values.shape)
    return IntegralSet(n, 2, 0, float(rng.normal()), h, two)


@given(two_electron_sets())
@settings(max_examples=60, deadline=None)
def test_ccsd_is_exact_for_two_electrons(integrals):
    """CCSD holds every excitation of two electrons, so from a converged
    RHF it reaches the FCI energy."""
    assume(solve_rhf(integrals).converged)
    _, ccsd, fci = _energies(integrals)
    assert ccsd == pytest.approx(fci, abs=1e-9)


@pytest.mark.parametrize(
    "path, expected",
    [
        (FIXTURE_DIR / "h2_sto3g_0735.fcidump", -1.13730604),
        (FIXTURE_DIR / "lih_sto3g.fcidump", -7.88239286),
        (FIXTURE_DIR / "h2o_sto3g.fcidump", -75.01246176),
        (BENCH_DATA / "h8_sto3g.fcidump", -4.30649893),
    ],
    ids=["h2", "lih", "h2o", "h8"],
)
def test_ccsd_lies_between_hf_and_fci(path, expected):
    """Over every orbital (H8 is its (8e,8o) space), CCSD lies between HF
    and FCI and within 1e-6 Ha of an independent CCSD run (Jacobi, no
    DIIS, to 1e-11); on H2 it is the FCI energy."""
    mf, ccsd, fci = _energies(read_fcidump(path))
    assert mf.converged
    assert fci - 1e-9 <= ccsd < mf.energy
    assert ccsd == pytest.approx(expected, abs=1e-6)
