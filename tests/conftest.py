import ctypes
import importlib
import json
import sys
from pathlib import Path

import pytest

FIXTURE_DIR = Path(__file__).parent / "fixtures"

# Make oracles importable from every test module.
sys.path.insert(0, str(Path(__file__).parent))


def _openblas(package: str) -> dict:
    """Version, core name and thread count of the OpenBLAS that
    ``package`` bundles (``<package>.libs/libscipy_openblas*.so``), read
    from the library itself; numpy's exports its symbols with a ``64_``
    suffix.  Every value is None for a package built on another BLAS."""
    root = Path(importlib.import_module(package).__file__).parents[1]
    paths = sorted(root.glob(f"{package}.libs/libscipy_openblas*.so"))
    if not paths:
        return {"openblas": None, "core": None, "threads": None}
    library = ctypes.CDLL(str(paths[0]))
    suffix = "64_" if "openblas64_" in paths[0].name else ""

    def call(name, restype):
        function = getattr(library, f"scipy_openblas_{name}{suffix}")
        function.restype = restype
        return function()

    return {
        "openblas": call("get_config", ctypes.c_char_p).decode().split()[1],
        "core": call("get_corename", ctypes.c_char_p).decode(),
        "threads": call("get_num_threads", ctypes.c_int),
    }


def blas_environment() -> dict:
    """numpy and scipy versions and, for the OpenBLAS each bundles, its
    version, the kernel core it picked at load time (``DYNAMIC_ARCH``, or
    ``OPENBLAS_CORETYPE``) and its thread count."""
    environment = {}
    for package in ("numpy", "scipy"):
        environment[package] = importlib.import_module(package).__version__
        environment.update({f"{package}_{key}": value for key, value in _openblas(package).items()})
    return environment


def _cores(environment: dict) -> str:
    cores = (environment["numpy_core"], environment["scipy_core"])
    return cores[0] if cores[0] == cores[1] else f"{cores[0]} (numpy) / {cores[1]} (scipy)"


def capture_mismatch(what: str) -> str:
    """The failure message of a check pinned to the bits of one machine:
    ``what`` differs from its fixture, and the environment the fixtures
    were captured in (fixtures/capture_environment.json) beside this
    run's.  Rounding inside BLAS and LAPACK follows the OpenBLAS kernel
    core, so a different core can move the bits with the physics intact."""
    captured = json.loads((FIXTURE_DIR / "capture_environment.json").read_text())
    current = {key: blas_environment()[key] for key in captured}
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
    environment = blas_environment()
    return [
        f"numpy {environment['numpy']}, scipy {environment['scipy']}",
        *(
            f"{package} OpenBLAS {environment[f'{package}_openblas']}, core {environment[f'{package}_core']}, "
            f"{environment[f'{package}_threads']} threads"
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
