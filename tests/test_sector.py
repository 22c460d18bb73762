"""One (N_alpha, N_beta) sector definition behind every entry point.

``activespace._split_sector`` splits (n_orbitals, n_electrons, 2 S_z)
into (N_alpha, N_beta) and refuses a split outside 0 <= N <= n_orbitals;
``fci_solve``, ``build_uccsd_ansatz`` and ``map_active_hamiltonian`` call
it, ``uccsd_excitations`` and ``lift_reduced_parity_state`` its range
check.  Each refuses an impossible sector with its own module's error.
"""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qcembed.sim as sim
from qcembed.activespace import ActiveSpaceSpec, reduce_integrals
from qcembed.fci import FciError, fci_solve
from qcembed.integrals import read_fcidump
from qcembed.meanfield import solve_rhf
from qcembed.sim import (
    SimulationError,
    Statevector,
    build_uccsd_ansatz,
    lift_reduced_parity_state,
    map_active_hamiltonian,
    uccsd_excitations,
)

from test_hamiltonian_map import random_symmetric_active
from test_vqe_digests import H8


def _possible(n_orbitals: int, n_electrons: int, twice_sz: int) -> bool:
    n_alpha, odd = divmod(n_electrons + twice_sz, 2)
    return not odd and 0 <= n_alpha <= n_orbitals and 0 <= n_electrons - n_alpha <= n_orbitals


def _accepts(call, error) -> bool:
    try:
        call()
    except error:
        return False
    return True


@st.composite
def sectors(draw):
    n_orbitals = draw(st.integers(0, 6))
    return n_orbitals, draw(st.integers(-1, 2 * n_orbitals + 1)), draw(st.integers(-4, 4))


@given(sectors(), st.integers(0, 2**32 - 1))
@settings(max_examples=120, deadline=None)
def test_entry_points_accept_exactly_the_possible_sectors(sector, seed):
    n_orbitals, n_electrons, twice_sz = sector
    possible = _possible(n_orbitals, n_electrons, twice_sz)
    active = random_symmetric_active(np.random.default_rng(seed), n_orbitals, n_electrons)
    # the two-qubit reduction needs at least one orbital
    reduced = n_orbitals > 0

    assert _accepts(lambda: fci_solve(active, n_electrons, twice_sz / 2), FciError) == possible
    build = lambda: build_uccsd_ansatz(n_orbitals, n_electrons, twice_sz, two_qubit_reduced=reduced)
    assert _accepts(build, SimulationError) == possible
    for mapping, two_qubit_reduced in (("parity", reduced), ("jordan-wigner", False)):
        mapped = lambda: map_active_hamiltonian(active, twice_sz, mapping, two_qubit_reduced)
        assert _accepts(mapped, SimulationError) == possible

    # the range check: every integer split of an even N + 2 S_z
    if (n_electrons + twice_sz) % 2 == 0:
        n_alpha = (n_electrons + twice_sz) // 2
        n_beta = n_electrons - n_alpha
        assert _accepts(lambda: uccsd_excitations(n_orbitals, n_alpha, n_beta), SimulationError) == possible
        if reduced:
            register = np.zeros(2 ** (2 * n_orbitals - 2), dtype=complex)
            register[0] = 1.0
            state = Statevector(2 * n_orbitals - 2, register)
            lift = lambda: lift_reduced_parity_state(state, n_orbitals, n_alpha, n_beta)
            assert _accepts(lift, SimulationError) == possible


def test_every_entry_point_says_why_in_one_message():
    odd = random_symmetric_active(np.random.default_rng(0), 3, 3)
    message = re.escape("inconsistent (n_electrons=3, 2S_z=0)")
    with pytest.raises(FciError, match=message):
        fci_solve(odd, 3, 0.0)
    with pytest.raises(SimulationError, match=message):
        build_uccsd_ansatz(3, 3, 0)
    with pytest.raises(SimulationError, match=message):
        map_active_hamiltonian(odd)

    # (3e, 2S_z = 3) in 2 orbitals splits into (3, 0)
    crowded = random_symmetric_active(np.random.default_rng(0), 2, 3)
    message = re.escape("cannot place (3 alpha, 0 beta) electrons in 2 orbitals")
    with pytest.raises(FciError, match=message):
        fci_solve(crowded, 3, 1.5)
    with pytest.raises(SimulationError, match=message):
        build_uccsd_ansatz(2, 3, 3)
    with pytest.raises(SimulationError, match=message):
        map_active_hamiltonian(crowded, 3)


@pytest.mark.parametrize("n_alpha, n_beta", [(5, 1), (3, -1), (4, 0), (-1, 3)])
def test_range_checks_refuse_impossible_counts(n_alpha, n_beta):
    """``uccsd_excitations(3, 5, 1)`` once counted beta orbital 0 as alpha."""
    with pytest.raises(SimulationError, match=rf"cannot place \({n_alpha} alpha, {n_beta} beta\) electrons in 3"):
        uccsd_excitations(3, n_alpha, n_beta)
    with pytest.raises(SimulationError, match="cannot place"):
        lift_reduced_parity_state(Statevector(4, np.eye(16)[0]), 3, n_alpha, n_beta)


def test_h8_sectors_of_one_parity_share_one_compiled_map():
    """(4e,6o) and (8e,6o) both have even alpha and even total parity, so
    the reduction gives them one sector and one compiled W."""
    integrals = read_fcidump(H8)
    mean_field = solve_rhf(integrals)
    sim._compile_hamiltonian.cache_clear()
    for n_electrons in (4, 8):
        map_active_hamiltonian(reduce_integrals(integrals, mean_field, ActiveSpaceSpec(n_electrons, 6)))
    assert sim._compile_hamiltonian.cache_info().currsize == 1
