"""The OpenBLAS that numpy and scipy bundle, and the one place that calls
into it.

Each wheel ships its own library as ``<package>.libs/libscipy_openblas*.so``
beside the package; numpy's is the 64-bit-integer build, whose
``scipy_openblas_`` symbols carry a ``64_`` suffix.  Importing this module
loads neither package and opens no library; the first call does.
"""

from __future__ import annotations

import ctypes
import functools
import importlib
import threading
from contextlib import contextmanager
from pathlib import Path

__all__ = ["SINGLE_THREAD_GEMM_SIZE", "calling_thread", "environment", "library"]

# m * n * k of the largest GEMM that OpenBLAS runs on the calling thread:
# 65536 times its default GEMM_MULTITHREAD_THRESHOLD of 4.  A larger product
# wakes a BLAS worker that costs more CPU than it saves at FCI's sizes.  The
# batches also keep OpenBLAS on its small-matrix kernel, so pinning one large
# GEMM to one thread is no substitute: H8 (8e,8o)'s pair-space product
# (2485 x 36 by 36 x 37) took 200-331 us as one GEMM pinned to one thread and
# 130-219 us in its 13 batches (9 alternating rounds in one process on a
# 2-vCPU VM; energies bitwise equal).
SINGLE_THREAD_GEMM_SIZE = 4 * 65536


@functools.cache
def library(package: str) -> ctypes.CDLL | None:
    """The OpenBLAS that ``package`` bundles, opened once, or None when the
    package is built on another BLAS."""
    root = Path(importlib.import_module(package).__file__).parents[1]
    paths = sorted(root.glob(f"{package}.libs/libscipy_openblas*.so"))
    try:
        return ctypes.CDLL(str(paths[0])) if paths else None
    except OSError:
        return None


def _call(handle: ctypes.CDLL, name: str, *arguments: int, restype=ctypes.c_int):
    """``handle``'s function ``name``, declared on C ints, called on ``arguments``."""
    function = getattr(handle, name)
    function.argtypes = [ctypes.c_int] * len(arguments)
    function.restype = restype
    return function(*arguments)


def environment() -> dict:
    """numpy and scipy versions and, for the OpenBLAS each bundles, its
    version, the kernel core it picked at load time (``DYNAMIC_ARCH``, or
    ``OPENBLAS_CORETYPE``) and its thread count, read from the library
    itself; None for a package built on another BLAS."""
    record = {}
    for package in ("numpy", "scipy"):
        record[package] = importlib.import_module(package).__version__
        handle = library(package)
        if handle is None:
            record.update(dict.fromkeys(f"{package}_{key}" for key in ("openblas", "core", "threads")))
            continue
        suffix = "64_" if "openblas64_" in Path(handle._name).name else ""

        def read(name, restype=ctypes.c_int):
            return _call(handle, f"scipy_openblas_{name}{suffix}", restype=restype)

        record[f"{package}_openblas"] = read("get_config", ctypes.c_char_p).decode().split()[1]
        record[f"{package}_core"] = read("get_corename", ctypes.c_char_p).decode()
        record[f"{package}_threads"] = read("get_num_threads")
    return record


# In scipy's pthreads OpenBLAS the thread count is one process-wide value,
# so overlapping pins share one: the first to enter saves the count, the
# last to leave restores it.
_pin_lock = threading.Lock()
_pin = {"depth": 0, "saved": 1}


@contextmanager
def calling_thread():
    """Hold scipy's OpenBLAS to the calling thread for the duration and
    restore the previous thread count on every exit; without scipy's
    bundled OpenBLAS this does nothing.  L-BFGS-B solves its small BFGS
    matrices with LAPACK ``dtrtrs``, whose calls OpenBLAS hands to its
    pool, and the woken worker then spins between the optimizer's
    ``setulb`` calls for the whole minimization, for no speed."""
    handle = library("scipy")
    if handle is None or not hasattr(handle, "openblas_set_num_threads_local"):
        yield
        return
    with _pin_lock:
        if _pin["depth"] == 0:
            _pin["saved"] = _call(handle, "openblas_set_num_threads_local", 1)
        _pin["depth"] += 1
    try:
        yield
    finally:
        with _pin_lock:
            _pin["depth"] -= 1
            if _pin["depth"] == 0:
                _call(handle, "openblas_set_num_threads_local", _pin["saved"])
