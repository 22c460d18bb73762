"""Active-space quantum embedding workbench.

Pipeline: FCIDUMP integrals -> restricted mean-field bath ->
Fermi-centered active window -> parity-mapped qubit Hamiltonian ->
statevector UCCSD-VQE (or exact diagonalization) -> damped
self-consistency -> range-separation scans and recovery reports.
"""

from .activespace import (
    ActiveHamiltonian,
    ActiveSpaceError,
    ActiveSpaceSpec,
    reduce_integrals,
    select_orbitals,
)
from .embedding import (
    EmbeddingConfig,
    EmbeddingError,
    EmbeddingState,
    damping_factor,
    run_embedding,
)
from .fci import (
    FciCapacityError,
    FciConvergenceError,
    FciError,
    FciResult,
    compute_1rdm,
    fci_solve,
)
from .fermion import FermionOperator, excitation_generator, spin_orbital_hamiltonian
from .integrals import (
    FcidumpError,
    IntegralSet,
    SymmetricTwoBody,
    parse_fcidump,
    read_fcidump,
    save_fcidump,
    write_fcidump,
)
from .mappings import ReductionError, map_jordan_wigner, map_parity, two_qubit_reduction
from .meanfield import MeanFieldResult, ScfError, build_fock, solve_rhf
from .pauli import PauliString, PauliSum
from .report import RecoveryReport, build_report, recovery
from .scan import MuScanSpec, mu_grid, mu_scan, select_optimal_mu
from .sim import (
    Statevector,
    UccsdAnsatz,
    apply_pauli_exponential,
    build_uccsd_ansatz,
    evolve_ansatz,
    expectation,
    hf_state,
    map_active_hamiltonian,
    uccsd_excitations,
)
from .tapering import TaperingResult, Z2Symmetries, find_z2_symmetries, taper_all_sectors
from .vqe import VqeConfig, VqeError, VqeResult, initialize_parameters, minimize

__version__ = "0.1.0"
