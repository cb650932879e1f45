"""The numeric fingerprint: what decides the bits of a float32 GEMM here.

Two hosts reproduce each other's training bits only if they share the numpy
build, the BLAS kernel OpenBLAS picked for the CPU (``SkylakeX``,
``Haswell``, ...) and the BLAS thread count.  numpy wheels bundle their own
OpenBLAS (``numpy.libs/libscipy_openblas64_*.so``), whose exported getters
report the last two; they are read through ``ctypes``, so no extra package
is needed.  Run ``python -m repro.utils.fingerprint`` to print it as JSON.
"""

from __future__ import annotations

import ctypes
import glob
import json
import os
from typing import Dict, Optional

import numpy as np

__all__ = ["numeric_fingerprint"]


def _bundled_openblas() -> Optional[str]:
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    found = sorted(glob.glob(os.path.join(libs, "libscipy_openblas*.so*")))
    return os.path.realpath(found[0]) if found else None


def numeric_fingerprint() -> Dict[str, object]:
    """numpy version plus the bundled OpenBLAS core, thread count and config.

    The BLAS fields are ``None`` when numpy does not bundle a
    scipy-openblas build (e.g. a distribution package linked elsewhere).
    """
    out: Dict[str, object] = {
        "numpy": np.__version__,
        "blas_library": None,
        "blas_core": None,
        "blas_threads": None,
        "blas_config": None,
    }
    path = _bundled_openblas()
    if path is None:
        return out
    lib = ctypes.CDLL(path)
    out["blas_library"] = os.path.basename(path)
    for key, symbol, restype in (
        ("blas_core", "scipy_openblas_get_corename64_", ctypes.c_char_p),
        ("blas_threads", "scipy_openblas_get_num_threads64_", ctypes.c_int),
        ("blas_config", "scipy_openblas_get_config64_", ctypes.c_char_p),
    ):
        fn = getattr(lib, symbol, None)
        if fn is None:
            continue
        fn.argtypes = []
        fn.restype = restype
        value = fn()
        out[key] = value.decode() if isinstance(value, bytes) else value
    return out


if __name__ == "__main__":
    print(json.dumps(numeric_fingerprint(), indent=2))
