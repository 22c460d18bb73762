"""One energy through two independent stacks: a UCCSD state's qubit
expectation <psi|H_qubit|psi> (compiled parity map, two-qubit reduction,
simulator) against the direct-CI expectation <c|H_CI|c> of the same state
lifted to the occupation basis and gathered onto the FCI string space.

A UCCSD state at random parameters is not spin-flip symmetric, so H_CI is
the dense Slater-Condon matrix of the whole (N_alpha, N_beta) sector.
"""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qcembed.fci as fci
from qcembed.activespace import ActiveSpaceSpec, reduce_integrals
from qcembed.integrals import read_fcidump
from qcembed.meanfield import solve_rhf
from qcembed.sim import (
    build_uccsd_ansatz,
    evolve_ansatz,
    expectation,
    lift_reduced_parity_state,
    map_active_hamiltonian,
)

from oracles import reference_fci_matrix

FIXTURES = Path(__file__).parent / "fixtures"
H8 = Path(__file__).parent.parent / "bench" / "data" / "h8_sto3g.fcidump"
SPACES = {"h2o-4e4o": (FIXTURES / "h2o_sto3g.fcidump", 4, 4), "h8-4e6o": (H8, 4, 6)}


@pytest.fixture(scope="module")
def problems():
    """Per space: the ansatz, the qubit Hamiltonian, the alpha and beta
    strings of the ansatz's sector and the dense CI matrix on it."""
    built = {}
    for name, (path, n_electrons, n_orbitals) in SPACES.items():
        integrals = read_fcidump(path)
        active = reduce_integrals(
            integrals, solve_rhf(integrals), ActiveSpaceSpec(n_electrons, n_orbitals)
        )
        ansatz = build_uccsd_ansatz(active.n_orbitals, active.n_electrons)
        n = active.n_orbitals
        space = fci._string_space(n, ansatz.n_alpha, ansatz.n_beta)
        alpha, beta = space.alpha.strings, space.beta.strings
        matrix = reference_fci_matrix(active, ansatz.n_alpha, ansatz.n_beta)
        built[name] = ansatz, map_active_hamiltonian(active), (alpha, beta), matrix
    return built


@given(name=st.sampled_from(sorted(SPACES)), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_qubit_energy_equals_direct_ci_energy(problems, name, seed):
    ansatz, hamiltonian, (alpha, beta), matrix = problems[name]
    n = ansatz.n_spatial
    parameters = np.random.default_rng(seed).uniform(-np.pi, np.pi, size=ansatz.n_parameters)
    state = evolve_ansatz(ansatz, parameters)
    lifted = lift_reduced_parity_state(state, n, ansatz.n_alpha, ansatz.n_beta)
    c = lifted.amplitudes[alpha[:, None] | (beta[None, :] << n)].ravel()
    # the sector holds the whole state, and H_CI is real: split c = a + ib
    assert np.vdot(c, c).real == pytest.approx(1.0, abs=1e-12)
    ci_energy = sum(part @ matrix @ part for part in (c.real, c.imag))
    assert expectation(state, hamiltonian) == pytest.approx(ci_energy, abs=1e-10)
