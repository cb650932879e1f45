"""The numeric fingerprint: what decides the bits of a float32 GEMM here.

Two hosts reproduce each other's training bits only if they share the numpy
build, the BLAS kernel OpenBLAS picked for the CPU (``SkylakeX``,
``Haswell``, ...) and the BLAS thread count.  numpy wheels bundle their own
OpenBLAS (``numpy.libs/libscipy_openblas64_*.so``), whose exported getters
report the last two; they are read through ``ctypes``, so no extra package
is needed.  Run ``python -m repro.utils.fingerprint`` to print it as JSON.

The thread count is also *set* here.  Every process the library spawns
(training ranks, fabric host agents, process serving replicas) calls
:func:`pin_blas_threads` at start, and the local ``Session.fit`` /
``evaluate`` and the inference engine (hence in-thread serving) run inside
:func:`one_blas_thread`: one BLAS thread, so local and process runs agree
bit for bit and ranks sharing a host do not fight over one thread pool.  A
caller who sets one of the variables the bundled OpenBLAS reads
(:data:`THREAD_ENV`) keeps that choice, and the fingerprint records it
(``blas_thread_env``); variables meant for other libraries
(``MKL_NUM_THREADS``) do not count.  On a BLAS build without the bundled
setter all of this is a no-op.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import json
import os
from contextlib import contextmanager
from typing import Dict, Iterator, Optional

import numpy as np

__all__ = [
    "blas_threads",
    "numeric_fingerprint",
    "one_blas_thread",
    "pin_blas_threads",
    "set_blas_threads",
]

#: the environment variables the bundled OpenBLAS reads its thread count
#: from — through these a caller chooses the count
THREAD_ENV = (
    "OPENBLAS_NUM_THREADS",
    "GOTO_NUM_THREADS",
    "OMP_NUM_THREADS",
    "OPENBLAS_DEFAULT_NUM_THREADS",
)


def _bundled_openblas() -> Optional[str]:
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    found = sorted(glob.glob(os.path.join(libs, "libscipy_openblas*.so*")))
    return os.path.realpath(found[0]) if found else None


@functools.lru_cache(maxsize=None)
def _openblas() -> Optional[ctypes.CDLL]:
    path = _bundled_openblas()
    return None if path is None else ctypes.CDLL(path)


def _symbol(name: str, restype, argtypes=()):
    lib = _openblas()
    fn = None if lib is None else getattr(lib, name, None)
    if fn is not None:
        fn.argtypes = list(argtypes)
        fn.restype = restype
    return fn


def blas_threads() -> Optional[int]:
    """The bundled OpenBLAS's current thread count (``None``: not bundled)."""
    get = _symbol("scipy_openblas_get_num_threads64_", ctypes.c_int)
    return None if get is None else int(get())


def set_blas_threads(n: int) -> None:
    """Set the bundled OpenBLAS's thread count (a no-op without one)."""
    put = _symbol("scipy_openblas_set_num_threads64_", None, [ctypes.c_int])
    if put is not None:
        put(int(n))


def _caller_thread_env() -> Dict[str, str]:
    return {name: os.environ[name] for name in THREAD_ENV if name in os.environ}


def pin_blas_threads() -> None:
    """One BLAS thread for this process, unless the caller chose a count
    through the environment (that choice is kept)."""
    if not _caller_thread_env():
        set_blas_threads(1)


@contextmanager
def one_blas_thread() -> Iterator[None]:
    """Run a block at one BLAS thread and restore the previous count after
    it; a no-op when the caller chose a count through the environment."""
    before = None if _caller_thread_env() else blas_threads()
    if before is None or before == 1:
        yield
        return
    set_blas_threads(1)
    try:
        yield
    finally:
        set_blas_threads(before)


def numeric_fingerprint() -> Dict[str, object]:
    """numpy version, the bundled OpenBLAS core, thread count and config,
    and the thread-count variables the caller set (``blas_thread_env``).

    The BLAS fields are ``None`` when numpy does not bundle a
    scipy-openblas build (e.g. a distribution package linked elsewhere).
    """
    out: Dict[str, object] = {
        "numpy": np.__version__,
        "blas_library": None,
        "blas_core": None,
        "blas_threads": None,
        "blas_config": None,
        "blas_thread_env": _caller_thread_env(),
    }
    path = _bundled_openblas()
    if path is None:
        return out
    out["blas_library"] = os.path.basename(path)
    for key, symbol, restype in (
        ("blas_core", "scipy_openblas_get_corename64_", ctypes.c_char_p),
        ("blas_threads", "scipy_openblas_get_num_threads64_", ctypes.c_int),
        ("blas_config", "scipy_openblas_get_config64_", ctypes.c_char_p),
    ):
        fn = _symbol(symbol, restype)
        if fn is None:
            continue
        value = fn()
        out[key] = value.decode() if isinstance(value, bytes) else value
    return out


if __name__ == "__main__":
    print(json.dumps(numeric_fingerprint(), indent=2))
