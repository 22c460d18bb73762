"""The spin-summed 1-RDM of an occupation-basis state, read in the FCI
string space, against the mode-pair loop it replaced and the dense
ladder-matrix oracle.

``spin_summed_one_rdm`` splits a state into its (N_alpha, N_beta)
sectors and its real and imaginary parts, so the random states here mix
sectors, carry complex amplitudes and exact zeros, and are not
normalised.  A state whose imaginary part is exactly 0, as every VQE
state is, skips the imaginary pass; its gamma is bitwise that of both
passes.
"""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcembed.activespace import ActiveSpaceSpec, reduce_integrals
from qcembed.integrals import read_fcidump
from qcembed.meanfield import solve_rhf
from qcembed.sim import (
    Statevector,
    build_uccsd_ansatz,
    evolve_ansatz,
    lift_reduced_parity_state,
    spin_summed_one_rdm,
)

from oracles import brute_force_one_rdm, reference_spin_summed_one_rdm, reference_two_pass_one_rdm

FIXTURES = Path(__file__).parent / "fixtures"
H8 = Path(__file__).parent.parent / "bench" / "data" / "h8_sto3g.fcidump"


def random_state(seed: int, n_spatial: int, zero_fraction: float) -> np.ndarray:
    rng = np.random.default_rng(seed)
    dim = 4**n_spatial
    amps = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    amps[rng.random(dim) < zero_fraction] = 0.0
    return amps


@given(
    n_spatial=st.integers(0, 4),
    seed=st.integers(0, 2**32 - 1),
    zero_fraction=st.sampled_from([0.0, 0.5, 0.9, 1.0]),
)
@settings(max_examples=100, deadline=None)
def test_string_space_one_rdm_matches_references_on_random_states(
    n_spatial, seed, zero_fraction
):
    amps = random_state(seed, n_spatial, zero_fraction)
    gamma = spin_summed_one_rdm(Statevector(2 * n_spatial, amps), n_spatial)
    bound = 1e-12 * max(1.0, float(np.vdot(amps, amps).real))
    assert gamma.shape == (n_spatial, n_spatial)
    np.testing.assert_allclose(
        gamma, reference_spin_summed_one_rdm(amps, n_spatial), rtol=0, atol=bound
    )
    if n_spatial <= 3:
        expected = brute_force_one_rdm(amps, np.arange(len(amps)), n_spatial)
        np.testing.assert_allclose(gamma, expected, rtol=0, atol=bound)


@given(
    n_spatial=st.integers(0, 4),
    seed=st.integers(0, 2**32 - 1),
    zero_fraction=st.sampled_from([0.0, 0.5, 1.0]),
    real=st.booleans(),
)
@settings(max_examples=100, deadline=None)
def test_one_rdm_is_bitwise_both_passes_on_real_and_complex_states(
    n_spatial, seed, zero_fraction, real
):
    amps = random_state(seed, n_spatial, zero_fraction)
    if real:
        amps = amps.real.astype(np.complex128)  # imaginary parts exactly +0
    gamma = spin_summed_one_rdm(Statevector(2 * n_spatial, amps), n_spatial)
    expected = reference_two_pass_one_rdm(amps, n_spatial)
    assert gamma.dtype == expected.dtype and gamma.tobytes() == expected.tobytes()
    bound = 1e-12 * max(1.0, float(np.vdot(amps, amps).real))
    np.testing.assert_allclose(
        gamma, reference_spin_summed_one_rdm(amps, n_spatial), rtol=0, atol=bound
    )


VQE_SPACES = [
    pytest.param(path, n_electrons, n_orbitals, id=f"{label}-{n_electrons}e{n_orbitals}o")
    for label, path, n_electrons, n_orbitals in (
        ("h2", FIXTURES / "h2_sto3g_0735.fcidump", 2, 2),
        ("lih", FIXTURES / "lih_sto3g.fcidump", 2, 3),
        ("h2o", FIXTURES / "h2o_sto3g.fcidump", 4, 4),
        ("h2o", FIXTURES / "h2o_sto3g.fcidump", 8, 6),
        ("h8", H8, 4, 6),
    )
]


@pytest.mark.parametrize("path, n_electrons, n_orbitals", VQE_SPACES)
def test_vqe_state_one_rdm_matches_reference(path, n_electrons, n_orbitals):
    integrals = read_fcidump(path)
    active = reduce_integrals(
        integrals, solve_rhf(integrals), ActiveSpaceSpec(n_electrons, n_orbitals)
    )
    ansatz = build_uccsd_ansatz(active.n_orbitals, active.n_electrons)
    rng = np.random.default_rng(n_electrons * 10 + n_orbitals)
    for _ in range(3):
        parameters = rng.uniform(-np.pi, np.pi, size=ansatz.n_parameters)
        lifted = lift_reduced_parity_state(
            evolve_ansatz(ansatz, parameters), active.n_orbitals, ansatz.n_alpha, ansatz.n_beta
        )
        gamma = spin_summed_one_rdm(lifted, active.n_orbitals)
        assert not lifted.amplitudes.imag.any()  # so the imaginary pass is skipped
        two_pass = reference_two_pass_one_rdm(lifted.amplitudes, active.n_orbitals)
        assert gamma.tobytes() == two_pass.tobytes()
        expected = reference_spin_summed_one_rdm(lifted.amplitudes, active.n_orbitals)
        np.testing.assert_allclose(gamma, expected, rtol=0, atol=1e-12)
        assert np.trace(gamma) == pytest.approx(active.n_electrons, abs=1e-12)
        np.testing.assert_array_equal(gamma, gamma.T)
