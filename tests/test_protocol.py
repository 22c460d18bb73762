"""The paper's protocol on the H8 chain: six active orbitals, a varying
number of embedded electrons.

The baseline is the RHF energy, standing in for the paper's DFT, and the
recovered share is measured against full FCI and against closed-shell
CCSD (``oracles.reference_rhf_ccsd``) on the same integrals.  The (2e,6o)
window is out of reach on 8 orbitals: with one occupied orbital active it
needs 5 virtual ones, and 4 exist.
"""

import pytest

from qcembed.activespace import ActiveSpaceError, ActiveSpaceSpec, reduce_integrals, transform_to_mo_basis
from qcembed.embedding import EmbeddingConfig, run_embedding
from qcembed.fci import fci_solve
from qcembed.integrals import read_fcidump
from qcembed.meanfield import solve_rhf
from qcembed.report import recovery

from oracles import reference_rhf_ccsd
from test_vqe_digests import H8

E_HF = -4.174370
E_FULL_FCI = -4.307572
E_CCSD = -4.306499
# active electrons -> (FCI embed energy, % recovered vs full FCI, % vs CCSD)
FCI_EMBEDS = {
    4: (-4.232769, 43.84, 44.20),
    6: (-4.262387, 66.08, 66.61),
    8: (-4.236289, 46.49, 46.86),
}


@pytest.fixture(scope="module")
def h8():
    integrals = read_fcidump(H8)
    mean_field = solve_rhf(integrals)
    full = reduce_integrals(integrals, mean_field, ActiveSpaceSpec(8, 8))
    h_mo, eri_mo = transform_to_mo_basis(integrals, mean_field.orbital_coefficients)
    reference, correlation = reference_rhf_ccsd(h_mo, eri_mo, integrals.n_electrons)
    return {
        "integrals": integrals,
        "e_hf": mean_field.energy,
        "e_fci": full.inactive_energy + fci_solve(full).ground_energy,
        "e_ccsd": integrals.core_energy + reference + correlation,
    }


def test_references(h8):
    assert h8["e_hf"] == pytest.approx(E_HF, abs=1e-6)
    assert h8["e_fci"] == pytest.approx(E_FULL_FCI, abs=1e-6)
    assert h8["e_ccsd"] == pytest.approx(E_CCSD, abs=1e-6)


@pytest.mark.parametrize("n_electrons", sorted(FCI_EMBEDS))
def test_fci_embeds_recover_the_measured_share(h8, n_electrons):
    energy, versus_fci, versus_ccsd = FCI_EMBEDS[n_electrons]
    state = run_embedding(h8["integrals"], ActiveSpaceSpec(n_electrons, 6), EmbeddingConfig(active_solver="fci"))
    assert state.final_energy == pytest.approx(energy, abs=1e-6)
    assert recovery(h8["e_hf"], state.final_energy, h8["e_fci"]) == pytest.approx(versus_fci, abs=0.01)
    assert recovery(h8["e_hf"], state.final_energy, h8["e_ccsd"]) == pytest.approx(versus_ccsd, abs=0.01)


def test_two_electrons_in_six_orbitals_are_refused(h8):
    with pytest.raises(ActiveSpaceError, match="needs 5 virtual orbitals, only 4 exist"):
        run_embedding(h8["integrals"], ActiveSpaceSpec(2, 6), EmbeddingConfig(active_solver="fci"))


def test_vqe_embed_of_the_ten_qubit_space_converges_to_its_fci_embed(h8):
    """(4e,6o) is the paper's 10-qubit headline space; measured 5.2e-4 Ha
    above the FCI embed."""
    spec = ActiveSpaceSpec(4, 6)
    vqe = run_embedding(h8["integrals"], spec, EmbeddingConfig(active_solver="vqe"))
    fci = run_embedding(h8["integrals"], spec, EmbeddingConfig(active_solver="fci"))
    assert vqe.converged
    assert -1e-10 <= vqe.final_energy - fci.final_energy <= 1e-3
