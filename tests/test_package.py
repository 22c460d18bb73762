"""Package surface: every export resolves, and the cold import path stays light."""

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

MODULES = sorted(info.name for info in pkgutil.iter_modules(qcembed.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_resolve(name):
    """Every module declares ``__all__`` and each name in it exists.  The
    package itself re-exports with from-imports, which fail at import."""
    module = importlib.import_module(f"qcembed.{name}")
    assert [export for export in module.__all__ if not hasattr(module, export)] == []


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
