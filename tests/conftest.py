"""Pytest configuration: make tests/helpers.py importable from any test,
and fail any test that leaks shared-memory segments.
"""

import os

# Pin BLAS/OpenMP pools to one thread before numpy loads: every spawned rank
# otherwise spins a full pool, and on a small host 2 ranks run slower than 1
# (spawned children inherit the environment).  Harness-only; a caller's own
# setting wins.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

_SHM_DIR = Path("/dev/shm")
#: every shared-memory name the runtime allocates starts with one of these
_SHM_PREFIXES = ("repro-",)


def _repro_segments() -> set:
    if not _SHM_DIR.is_dir():  # non-Linux fallback: nothing to audit
        return set()
    return {
        p.name
        for p in _SHM_DIR.iterdir()
        if p.name.startswith(_SHM_PREFIXES)
    }


@pytest.fixture(autouse=True)
def shm_leak_guard():
    """Fail any test that leaves runtime shared-memory segments behind.

    Every ``repro-*`` segment created during a test (live group state,
    shadow slots, commit slabs, serving state) must be unlinked by the time
    the test returns — chaos tests that kill workers mid-commit included.
    Leaked segments are unlinked here so one failure cannot cascade, then
    reported as a test failure.
    """
    before = _repro_segments()
    yield
    leaked = _repro_segments() - before
    if leaked:
        from multiprocessing import shared_memory

        for name in sorted(leaked):
            try:
                seg = shared_memory.SharedMemory(name=name)
                seg.close()
                seg.unlink()
            except FileNotFoundError:
                pass
        pytest.fail(
            f"test leaked shared-memory segments: {sorted(leaked)} "
            f"(close() + unlink() belong in a finally path)"
        )
