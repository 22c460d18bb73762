"""The benchmark's workloads: seeded inputs, one task, and its check.

Each workload writes its inputs from the seed at set-up (``save_fcidump``
of the committed integrals with a seeded core-energy shift; for the scan,
one file per mu with a seeded offset that plants the minimum) and then
runs one task per call of :meth:`Workload.run`, a single client calling
the package's public API.  A task checks its energies against the
committed references in ``data/references.json``; a task that raises,
does not converge, selects the wrong mu or misses a reference fails.

Package functions are looked up through their module at call time
(``qcembed.run_embedding``), so the tracer's wrappers see the calls.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import qcembed
import qcembed.cli

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
FIXTURES = ROOT / "tests" / "fixtures"
REFERENCES = HERE / "data" / "references.json"

# VQE sits 4.7e-7 Ha (H2O 4e,4o) and 2.2e-8 Ha (LiH 2e,3o) above CASCI;
# the package and generator FCI for H8 agree to 2e-15 Ha.
VQE_TOLERANCE_HA = 1e-5
FCI_TOLERANCE_HA = 1e-8
CORE_SHIFT_HA = 0.5
MU_START, MU_STEP, MU_POINTS = 0.5, 0.25, 8
# Smallest planted gap above the optimum; far above the VQE tolerance.
MU_OFFSET_RANGE_HA = (0.002, 0.05)


@dataclass
class Inputs:
    """What set-up hands to the tasks."""

    work_dir: Path
    vqe_seed: int
    files: list[Path] = field(default_factory=list)
    references: list[float] = field(default_factory=list)
    config: Path | None = None
    expected_mu: float | None = None


@dataclass
class Outcome:
    energies: list[float]
    error_ha: float
    failure: str | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[[Path, int], Inputs]
    task: Callable[[Inputs], Outcome]

    def run(self, inputs: Inputs) -> Outcome:
        """One task; an exception counts as a failed task."""
        try:
            return self.task(inputs)
        except Exception:  # noqa: BLE001 - a failed task is recorded, not fatal
            return Outcome([], float("nan"), traceback.format_exc(limit=3).strip())


def _references() -> dict:
    return json.loads(REFERENCES.read_text())


def _shifted_copy(source: Path, target: Path, shift: float) -> None:
    integrals = qcembed.read_fcidump(source)
    shifted = dataclasses.replace(integrals, core_energy=integrals.core_energy + shift)
    qcembed.save_fcidump(shifted, target)


def _embed_setup(source: Path, reference_key: str) -> Callable[[Path, int], Inputs]:
    def setup(work_dir: Path, seed: int) -> Inputs:
        shift = float(np.random.default_rng(seed).uniform(-CORE_SHIFT_HA, CORE_SHIFT_HA))
        target = work_dir / source.name
        _shifted_copy(source, target, shift)
        reference = _references()[reference_key]["e_total"] + shift
        return Inputs(work_dir, vqe_seed=seed, files=[target], references=[reference])

    return setup


def _embed_task(n_electrons: int, n_orbitals: int, solver: str, tolerance: float):
    def task(inputs: Inputs) -> Outcome:
        integrals = qcembed.read_fcidump(inputs.files[0])
        state = qcembed.run_embedding(
            integrals,
            qcembed.ActiveSpaceSpec(n_electrons, n_orbitals),
            qcembed.EmbeddingConfig(active_solver=solver),
            qcembed.VqeConfig(seed=inputs.vqe_seed),
        )
        energy = state.final_energy
        error = abs(energy - inputs.references[0])
        failure = None
        if not state.converged:
            failure = "embedding did not converge"
        elif not error <= tolerance:
            failure = f"energy {energy!r} is {error:.3e} Ha from the reference"
        return Outcome([energy], error, failure)

    return task


def mu_grid() -> list[float]:
    return [MU_START + k * MU_STEP for k in range(MU_POINTS)]


def planted_offsets(seed: int) -> tuple[list[float], int]:
    """Per-mu core-energy offsets and the index of the planted minimum."""
    rng = np.random.default_rng(seed)
    planted = int(rng.integers(MU_POINTS))
    offsets = rng.uniform(*MU_OFFSET_RANGE_HA, size=MU_POINTS)
    offsets[planted] = 0.0
    return [float(x) for x in offsets], planted


def _scan_setup(work_dir: Path, seed: int) -> Inputs:
    offsets, planted = planted_offsets(seed)
    reference = _references()["lih_2e3o"]["e_total"]
    files = []
    for mu, offset in zip(mu_grid(), offsets):
        target = work_dir / f"lih_mu{mu:.2f}.fcidump"
        _shifted_copy(FIXTURES / "lih_sto3g.fcidump", target, offset)
        files.append(target)
    config = work_dir / "scan.ini"
    config.write_text(
        "[system]\nmolecule = lih\n\n"
        "[active_space]\nn_electrons = 2\nn_orbitals = 3\n\n"
        f"[vqe]\nseed = {seed}\n\n"
        f"[mu_scan]\nmu_start = {MU_START}\nmu_end = {mu_grid()[-1]}\nmu_step = {MU_STEP}\n"
        "inputs_pattern = lih_mu{mu:.2f}.fcidump\n"
    )
    return Inputs(
        work_dir,
        vqe_seed=seed,
        files=files,
        references=[reference + offset for offset in offsets],
        config=config,
        expected_mu=mu_grid()[planted],
    )


def _scan_task(inputs: Inputs) -> Outcome:
    out = inputs.work_dir / "scan.json"
    argv = ["mu-scan", "--config", str(inputs.config), "--format", "json", "--out", str(out)]
    with contextlib.redirect_stdout(io.StringIO()):
        code = qcembed.cli.main(argv)
    if code != 0:
        return Outcome([], float("nan"), f"qcembed mu-scan exited with code {code}")
    payload = json.loads(out.read_text())
    rows = payload["rows"]
    energies = [row["e_total"] for row in rows]
    error = max(abs(e - ref) for e, ref in zip(energies, inputs.references))
    failure = None
    if len(rows) != MU_POINTS or not all(row["converged"] for row in rows):
        failure = "scan point missing or not converged"
    elif not error <= VQE_TOLERANCE_HA:
        failure = f"scan energy {error:.3e} Ha from its reference"
    elif abs(payload["mu_opt"] - inputs.expected_mu) > 1e-9:
        failure = f"mu_opt {payload['mu_opt']} != planted {inputs.expected_mu}"
    return Outcome(energies, error, failure)


# Why each workload was chosen: BENCHMARK.json and README.md, "Workloads".
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "vqe-embed-h2o",
            _embed_setup(FIXTURES / "h2o_sto3g.fcidump", "h2o_4e4o"),
            _embed_task(4, 4, "vqe", VQE_TOLERANCE_HA),
        ),
        Workload(
            "fci-embed-h8",
            _embed_setup(HERE / "data" / "h8_sto3g.fcidump", "h8_8e8o"),
            _embed_task(8, 8, "fci", FCI_TOLERANCE_HA),
        ),
        Workload(
            "mu-scan-lih",
            _scan_setup,
            _scan_task,
        ),
    )
}
