import json
import sys
from pathlib import Path

import pytest

from qcembed._openblas import environment

FIXTURE_DIR = Path(__file__).parent / "fixtures"

# Make oracles importable from every test module.
sys.path.insert(0, str(Path(__file__).parent))


def _cores(record: dict) -> str:
    cores = (record["numpy_core"], record["scipy_core"])
    return cores[0] if cores[0] == cores[1] else f"{cores[0]} (numpy) / {cores[1]} (scipy)"


def capture_mismatch(what: str) -> str:
    """The failure message of a check pinned to the bits of one machine:
    ``what`` differs from its fixture, and the environment the fixtures
    were captured in (fixtures/capture_environment.json) beside this
    run's.  Rounding inside BLAS and LAPACK follows the OpenBLAS kernel
    core, so a different core can move the bits with the physics intact."""
    captured = json.loads((FIXTURE_DIR / "capture_environment.json").read_text())
    current = {key: environment()[key] for key in captured}
    cause = (
        "the recorded environment matches, so the code most likely changed these bits"
        if current == captured
        else "the environments differ, and BLAS/LAPACK rounding follows them"
    )
    return (
        f"{what} differs from its fixture; captured on {_cores(captured)}, running on {_cores(current)}: "
        f"{cause}\n  captured: {captured}\n  this run: {current}"
    )


def pytest_report_header(config):
    record = environment()
    return [
        f"numpy {record['numpy']}, scipy {record['scipy']}",
        *(
            f"{package} OpenBLAS {record[f'{package}_openblas']}, core {record[f'{package}_core']}, "
            f"{record[f'{package}_threads']} threads"
            for package in ("numpy", "scipy")
        ),
    ]


@pytest.fixture(scope="session")
def golden():
    with open(FIXTURE_DIR / "golden.json") as handle:
        return json.load(handle)


@pytest.fixture(scope="session")
def fixture_dir():
    return FIXTURE_DIR


def fixture_path(name: str) -> Path:
    return FIXTURE_DIR / name


@pytest.fixture(scope="session")
def h2_integrals(golden):
    from qcembed.integrals import read_fcidump

    return read_fcidump(FIXTURE_DIR / golden["h2_0735"]["file"])


@pytest.fixture(scope="session")
def lih_integrals(golden):
    from qcembed.integrals import read_fcidump

    return read_fcidump(FIXTURE_DIR / golden["lih"]["file"])


@pytest.fixture(scope="session")
def h2o_integrals(golden):
    from qcembed.integrals import read_fcidump

    return read_fcidump(FIXTURE_DIR / golden["h2o"]["file"])
