"""Package surface: every export resolves, no module imports a name it
does not use, and the cold import path stays light."""

import ast
import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import qcembed

from conftest import FIXTURE_DIR

BENCH_DATA = Path(__file__).resolve().parent.parent / "bench" / "data"
MODULES = sorted(info.name for info in pkgutil.iter_modules(qcembed.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_resolve(name):
    """Every module declares ``__all__`` and each name in it exists.  The
    package itself re-exports with from-imports, which fail at import."""
    module = importlib.import_module(f"qcembed.{name}")
    assert [export for export in module.__all__ if not hasattr(module, export)] == []


def _imported_names(tree: ast.Module) -> set[str]:
    """Names the module's import statements bind, anywhere in it."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(alias.asname or alias.name for alias in node.names)
    return names


def _bench_patches(monkeypatch) -> set[tuple[str, str]]:
    """(module, attribute) of every function the traced benchmark wraps."""
    monkeypatch.syspath_prepend(str(Path(__file__).parent.parent / "bench"))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    for name in ("layers", "tracing"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    layers = importlib.import_module("layers")
    return {(module.__name__, attribute) for module, attribute, *_ in layers.PATCHES}


@pytest.mark.parametrize("name", MODULES)
def test_module_uses_every_name_it_imports(name, monkeypatch):
    """An imported name is read by the module, exported in its
    ``__all__`` or looked up there by a function the traced benchmark
    wraps (``bench/layers.PATCHES``).  The package ``__init__`` imports
    only to re-export."""
    module = importlib.import_module(f"qcembed.{name}")
    tree = ast.parse(Path(module.__file__).read_text())
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = _imported_names(tree) - used - set(module.__all__)
    patched = _bench_patches(monkeypatch)
    assert sorted(n for n in unused if (module.__name__, n) not in patched) == []


@pytest.mark.parametrize("name", [name for name in MODULES if name != "report"])
def test_only_report_formats_tables(name):
    """How a number enters a table is decided in ``report`` alone: no
    other module imports ``csv`` or spells the ``.10g`` cell format."""
    module = importlib.import_module(f"qcembed.{name}")
    source = Path(module.__file__).read_text()
    imported = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            imported.add(node.module.split(".")[0])
    assert "csv" not in imported
    assert ".10g" not in source


@pytest.mark.parametrize("name", MODULES)
def test_only_meanfield_forms_a_fock_matrix(name):
    """The Coulomb and exchange contractions of a Fock matrix are spelled
    in ``meanfield`` alone: no other module writes their einsum subscripts
    (``pqrs,`` for J, ``prsq`` for K); the frozen-core reduction calls
    the mean-field Fock step."""
    source = Path(importlib.import_module(f"qcembed.{name}").__file__).read_text()
    spelled = [subscripts for subscripts in ("pqrs,", "prsq") if subscripts in source]
    assert spelled == (["pqrs,", "prsq"] if name == "meanfield" else [])


_COLD_PATH_SCRIPT = """
import json
import sys


def loaded():
    return sorted(name for name in sys.modules if name.startswith("scipy"))


import qcembed.cli
from qcembed import (
    ActiveSpaceSpec, build_uccsd_ansatz, fci_solve, map_active_hamiltonian, minimize,
    read_fcidump, reduce_integrals, solve_rhf,
)

stages = {"import": loaded()}
integrals = read_fcidump(sys.argv[1])
active = reduce_integrals(integrals, solve_rhf(integrals), ActiveSpaceSpec(2, 2))
fci_solve(active)
stages["fci"] = loaded()
minimize(map_active_hamiltonian(active), build_uccsd_ansatz(2, 2))
stages["vqe"] = loaded()
print(json.dumps(stages))
"""


def test_cold_path_loads_no_scipy(golden):
    """``import qcembed.cli``, RHF, the reduction and an FCI solve load no
    scipy module; the first VQE minimization loads the optimizer."""
    source_root = str(Path(qcembed.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [source_root, os.environ.get("PYTHONPATH")]))
    completed = subprocess.run(
        [sys.executable, "-c", _COLD_PATH_SCRIPT, str(FIXTURE_DIR / golden["h2_0735"]["file"])],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    stages = json.loads(completed.stdout)
    assert stages["import"] == []
    assert stages["fci"] == []
    assert "scipy.optimize" in stages["vqe"]


_CPU_TICKS = """
import json
import os
import sys
import time


def cpu_ticks():
    ticks = {}
    for tid in os.listdir("/proc/self/task"):
        try:
            with open(f"/proc/self/task/{tid}/stat") as stat:
                fields = stat.read().rsplit(")", 1)[1].split()
        except FileNotFoundError:  # the thread exited
            continue
        ticks[int(tid)] = int(fields[11]) + int(fields[12])  # utime + stime
    return ticks


def report(before, after):
    main = os.getpid()
    print(json.dumps({
        "main": after[main] - before[main],
        "other": sum(t - before.get(tid, 0) for tid, t in after.items() if tid != main),
    }))
"""

_VQE_LOOP = """
from qcembed import (
    ActiveSpaceSpec, build_uccsd_ansatz, map_active_hamiltonian, minimize, read_fcidump,
    reduce_integrals, solve_rhf,
)
from qcembed.vqe import VqeConfig

integrals = read_fcidump(sys.argv[1])
active = reduce_integrals(integrals, solve_rhf(integrals), ActiveSpaceSpec(2, 3))
hamiltonian = map_active_hamiltonian(active)
ansatz = build_uccsd_ansatz(active.n_orbitals, active.n_electrons)
minimize(hamiltonian, ansatz)  # loads scipy, which starts its BLAS pool
time.sleep(0.5)  # a new pool's workers spin for their timeout once, whatever runs
before = cpu_ticks()
for seed in range(50):
    minimize(hamiltonian, ansatz, VqeConfig(seed=seed))
report(before, cpu_ticks())
"""

_FCI_LOOP = """
from qcembed import ActiveSpaceSpec, fci_solve, read_fcidump, reduce_integrals, solve_rhf

integrals = read_fcidump(sys.argv[1])
active = reduce_integrals(integrals, solve_rhf(integrals), ActiveSpaceSpec(8, 8))
fci_solve(active)  # compiles the shape's tables
time.sleep(0.5)  # numpy's BLAS pool spins for its timeout once after it starts
before = cpu_ticks()
for _ in range(40):
    fci_solve(active)
report(before, cpu_ticks())
"""


def _thread_ticks(loop: str, path: Path) -> dict:
    """CPU ticks of the main thread and of all other threads of a fresh
    interpreter while it runs ``loop`` on the FCIDUMP file ``path``."""
    source_root = str(Path(qcembed.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(filter(None, [source_root, os.environ.get("PYTHONPATH")]))
    completed = subprocess.run(
        [sys.executable, "-c", _CPU_TICKS + loop, str(path)],
        env={**os.environ, "PYTHONPATH": pythonpath},
        capture_output=True,
        text=True,
        timeout=300,
        check=True,
    )
    return json.loads(completed.stdout)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/task")
def test_vqe_leaves_no_blas_worker_spinning(golden):
    """A VQE keeps its CPU time on the calling thread: no BLAS worker
    thread spins beside the optimizer (it used to match the main
    thread's CPU time, tick for tick)."""
    ticks = _thread_ticks(_VQE_LOOP, FIXTURE_DIR / golden["lih"]["file"])
    assert ticks["main"] > 0
    assert ticks["other"] <= 0.25 * ticks["main"], ticks


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/task")
def test_fci_leaves_no_blas_worker_spinning():
    """The (8e,8o) H8 FCI solve keeps its pair-space products on the
    calling thread: each batch stays under OpenBLAS's threading
    threshold, so no BLAS worker runs beside the solve."""
    ticks = _thread_ticks(_FCI_LOOP, BENCH_DATA / "h8_sto3g.fcidump")
    assert ticks["main"] > 0
    assert ticks["other"] <= 0.25 * ticks["main"], ticks
