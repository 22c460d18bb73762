#!/usr/bin/env python3
"""Regenerate the benchmark's committed inputs and reference energies.

Writes, next to this file:

    data/h8_sto3g.fcidump   linear H8 chain, STO-3G, 1.0 Angstrom spacing
    data/references.json    reference total energies the benchmark checks

The H8 integrals and their full-CI energy come from the routines in
``tests/fixtures/generate_fixtures.py``, which share no code with the
package; that file is imported read-only.  The CASCI references for the
VQE workloads come from the package's own FCI solver on the committed
test fixtures.  Takes about half a minute.  Run from the repository root:

    python3 bench/make_inputs.py
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DATA = HERE / "data"
H8_SPACING_ANGSTROM = 1.0
H8_ATOMS = 8


def _load_generator():
    path = ROOT / "tests" / "fixtures" / "generate_fixtures.py"
    spec = importlib.util.spec_from_file_location("generate_fixtures", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def h8_reference(gen, fcidump_path: Path) -> dict:
    """Emit the H8 FCIDUMP and return the generator's HF and FCI energies."""
    step = H8_SPACING_ANGSTROM * gen.ANGSTROM_TO_BOHR
    geometry = [("H", (0.0, 0.0, k * step)) for k in range(H8_ATOMS)]
    overlap, h_core, eri = gen.integral_tables(geometry)
    core = gen.nuclear_repulsion(geometry)
    e_hf, _, coeff = gen.restricted_hartree_fock(overlap, h_core, eri, H8_ATOMS)
    h_mo, eri_mo = gen.mo_transform(h_core, eri, coeff)
    gen.emit_fcidump(fcidump_path, h_mo, eri_mo, core, H8_ATOMS)
    e_fci, dimension = gen.fci_ground_energy(h_mo, eri_mo, H8_ATOMS, H8_ATOMS)
    return {
        "file": fcidump_path.name,
        "active": [H8_ATOMS, H8_ATOMS],
        "e_hf": e_hf + core,
        "e_total": e_fci + core,
        "fci_dimension": dimension,
        "source": "tests/fixtures/generate_fixtures.py fci_ground_energy",
    }


def casci_reference(fixture: str, n_electrons: int, n_orbitals: int) -> dict:
    """Package-FCI embedding energy of a fixture: in the fixed RHF orbital
    basis the damped cycle converges to the CASCI energy."""
    from qcembed import ActiveSpaceSpec, EmbeddingConfig, read_fcidump, run_embedding

    state = run_embedding(
        read_fcidump(ROOT / "tests" / "fixtures" / fixture),
        ActiveSpaceSpec(n_electrons, n_orbitals),
        EmbeddingConfig(active_solver="fci"),
    )
    if not state.converged:
        raise RuntimeError(f"FCI embedding of {fixture} did not converge")
    return {
        "file": f"tests/fixtures/{fixture}",
        "active": [n_electrons, n_orbitals],
        "e_total": state.final_energy,
        "source": "qcembed run_embedding with the FCI solver (CASCI)",
    }


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    DATA.mkdir(exist_ok=True)
    references = {
        "h2o_4e4o": casci_reference("h2o_sto3g.fcidump", 4, 4),
        "lih_2e3o": casci_reference("lih_sto3g.fcidump", 2, 3),
        "h8_8e8o": h8_reference(_load_generator(), DATA / "h8_sto3g.fcidump"),
    }
    (DATA / "references.json").write_text(json.dumps(references, indent=2) + "\n")
    for name, ref in references.items():
        print(f"{name}: E_total = {ref['e_total']!r} Ha")
    return 0


if __name__ == "__main__":
    sys.exit(main())
