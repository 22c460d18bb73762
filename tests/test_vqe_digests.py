"""Every VQE result of the fixture spaces pinned bit for bit.

A digest covers one ``minimize`` run (trace, parameters, energy,
evaluations, iterations, gradient norm and message), the amplitudes of
its final ``evolve_ansatz`` state with the sign of every zero
normalised, and one ``run_embedding`` of the same space and seed (energy
history, damped density and solver evaluations).  Each energy ends in
one BLAS complex dot per state, so the digests pin this machine's BLAS
complex dot, as the front-end digests pin its LAPACK.  Beside each digest,
checks that hold on any BLAS core: the VQE energy lies above the FCI
energy of the same active Hamiltonian and within a bound of it, the
embedding stops at iteration 2 with a delta of exactly 0, and its damped
density is symmetric with trace 2 N_inactive + N_active.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from qcembed.activespace import ActiveSpaceSpec, reduce_integrals
from qcembed.embedding import EmbeddingConfig, run_embedding
from qcembed.fci import fci_solve
from qcembed.integrals import read_fcidump
from qcembed.meanfield import solve_rhf
from qcembed.sim import build_uccsd_ansatz, evolve_ansatz, map_active_hamiltonian
from qcembed.vqe import VqeConfig, minimize

from conftest import FIXTURE_DIR, capture_mismatch
from test_front_end import _digest

H8 = Path(__file__).parent.parent / "bench" / "data" / "h8_sto3g.fcidump"

# space -> (FCIDUMP, active electrons, active orbitals)
SPACES = {
    "h2-2e2o": (FIXTURE_DIR / "h2_sto3g_0735.fcidump", 2, 2),
    "lih-2e2o": (FIXTURE_DIR / "lih_sto3g.fcidump", 2, 2),
    "lih-2e3o": (FIXTURE_DIR / "lih_sto3g.fcidump", 2, 3),
    "h2o-2e2o": (FIXTURE_DIR / "h2o_sto3g.fcidump", 2, 2),
    "h2o-4e4o": (FIXTURE_DIR / "h2o_sto3g.fcidump", 4, 4),
    "h2o-6e5o": (FIXTURE_DIR / "h2o_sto3g.fcidump", 6, 5),
    "h8-4e5o": (H8, 4, 5),
    "h8-6e5o": (H8, 6, 5),
    # 10 qubits and 148 X-mask groups: the Hamiltonian kernels split into chunks
    "h8-4e6o": (H8, 4, 6),
}
# space -> bound on E_VQE - E_FCI (Ha) on the active Hamiltonian, with
# the gaps measured at seeds 0 and 3
GAP_BOUNDS = {
    "h2-2e2o": 1e-7,  # 1.7e-9, 2.1e-10
    "lih-2e2o": 1e-7,  # 7.0e-13, 1.2e-11
    "lih-2e3o": 1e-6,  # 2.5e-8, 2.7e-8
    "h2o-2e2o": 1e-7,  # 2.8e-9, 2.7e-11
    "h2o-4e4o": 5e-6,  # 4.4e-7, 4.4e-7
    "h2o-6e5o": 2e-4,  # 4.9e-5, 4.9e-5
    "h8-4e5o": 1e-3,  # 3.1e-4, 3.1e-4
    "h8-6e5o": 1e-3,  # 2.9e-4, 2.9e-4
    "h8-4e6o": 1e-3,  # 5.2e-4 (seed 0)
}
SEEDS = (0, 3)
# (space, VQE seed) of every digest; the 10-qubit space at one seed
CASES = [(space, seed) for space in SPACES if space != "h8-4e6o" for seed in SEEDS] + [("h8-4e6o", 0)]


def vqe_digests(space: str, seed: int) -> dict[str, str]:
    """Digests of the ``minimize`` run, its final state and the VQE
    embedding of one space at one VQE seed."""
    path, n_electrons, n_orbitals = SPACES[space]
    integrals = read_fcidump(path)
    spec = ActiveSpaceSpec(n_electrons, n_orbitals)
    active = reduce_integrals(integrals, solve_rhf(integrals), spec)
    ansatz = build_uccsd_ansatz(active.n_orbitals, active.n_electrons)
    config = VqeConfig(seed=seed)
    result = minimize(map_active_hamiltonian(active), ansatz, config)
    state = evolve_ansatz(ansatz, result.parameters).amplitudes
    state = np.where(state == 0, 0.0, state)  # +0 for every zero, whatever its sign
    embedded = run_embedding(integrals, spec, EmbeddingConfig(active_solver="vqe"), config)
    return {
        "minimize": _digest(
            np.array(result.trace), result.parameters, result.energy, result.evaluations,
            result.iterations, result.gradient_norm, result.message,
        ),
        "state": _digest(state),
        "embedding": _digest(
            np.array(embedded.energy_history), embedded.damped_density, embedded.solver_evaluations,
        ),
    }


@pytest.mark.parametrize("space, seed", CASES)
def test_vqe_results_match_their_digests(space, seed):
    """The bits in fixtures/vqe_digests.json, captured by dumping
    ``{f"{space}/seed{seed}": vqe_digests(space, seed) for space, seed in
    CASES}``; the h8-4e6o entry was captured before the Hamiltonian kernels
    worked in chunks."""
    expected = json.loads((FIXTURE_DIR / "vqe_digests.json").read_text())
    assert sorted(expected) == sorted(f"{s}/seed{k}" for s, k in CASES)
    key = f"{space}/seed{seed}"
    assert vqe_digests(space, seed) == expected[key], capture_mismatch(key)


@pytest.mark.parametrize("space, seed", CASES)
def test_vqe_results_hold_on_any_blas_core(space, seed):
    path, n_electrons, n_orbitals = SPACES[space]
    integrals = read_fcidump(path)
    spec = ActiveSpaceSpec(n_electrons, n_orbitals)
    active = reduce_integrals(integrals, solve_rhf(integrals), spec)
    config = VqeConfig(seed=seed)
    result = minimize(map_active_hamiltonian(active), build_uccsd_ansatz(n_orbitals, n_electrons), config)
    assert -1e-10 <= result.energy - fci_solve(active).ground_energy <= GAP_BOUNDS[space]

    embedded = run_embedding(integrals, spec, EmbeddingConfig(active_solver="vqe"), config)
    assert embedded.converged and embedded.iteration == 2 and embedded.delta_history[-1] == 0.0
    density = embedded.damped_density
    assert np.array_equal(density, density.T)
    expected_trace = 2 * len(embedded.inactive_orbitals) + n_electrons
    assert np.trace(density) == pytest.approx(expected_trace, rel=0, abs=1e-12)
