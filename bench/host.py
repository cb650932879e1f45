"""What the host was doing while the benchmark ran: fingerprint, CPU steal,
a calibration spin, resident memory, and the leak probes (``/dev/shm``
segments and processes left in the child's group).

Everything reads ``/proc`` or the standard library; nothing here imports the
library under test.
"""

from __future__ import annotations

import os
import platform
import resource
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Set

THREAD_PINS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

STEAL_LIMIT = 0.02       # share of CPU time stolen during a round
SPIN_DRIFT_LIMIT = 0.10  # change of the calibration spin across a round


def pinned_env(base: Optional[Dict[str, str]] = None) -> Dict[str, str]:
    """``base`` (default: this process's environment) with every BLAS/OpenMP
    pool pinned to one thread — spawned ranks inherit it.  Unpinned, two
    ranks on this 2-vCPU host each spin a full pool and run 4-6x slower."""
    env = dict(os.environ if base is None else base)
    for name in THREAD_PINS:
        env[name] = "1"
    return env


def fingerprint() -> dict:
    """Host shape recorded with every run (numpy is imported lazily so the
    parent runner can call this before the child has started)."""
    import numpy as np

    blas = "unknown"
    try:
        cfg = np.show_config(mode="dicts")
        dep = cfg.get("Build Dependencies", {}).get("blas", {})
        blas = f"{dep.get('name', 'unknown')} {dep.get('version', '')}".strip()
    except (TypeError, AttributeError):
        pass  # older numpy: show_config() takes no mode and only prints
    return {
        "host_cpus": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "kernel": platform.release(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_pins": {name: os.environ.get(name) for name in THREAD_PINS},
    }


def cpu_ticks() -> Optional[dict]:
    """Aggregate ``/proc/stat`` jiffies: ``{"steal", "total"}``."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
    except OSError:
        return None
    if not fields or fields[0] != "cpu":
        return None
    ticks = [int(x) for x in fields[1:]]
    # user nice system idle iowait irq softirq steal [guest guest_nice];
    # guest time is already inside user, so it is not added again
    steal = ticks[7] if len(ticks) > 7 else 0
    return {"steal": steal, "total": sum(ticks[:8])}


def steal_share(before: Optional[dict], after: Optional[dict]) -> float:
    if before is None or after is None:
        return 0.0
    total = after["total"] - before["total"]
    return (after["steal"] - before["steal"]) / total if total > 0 else 0.0


def spin_rate(windows: int = 5, window_s: float = 0.02,
              clock: Callable[[], float] = time.perf_counter) -> float:
    """Iterations per second of a fixed pure-Python loop — a cheap reading
    of how fast this core is right now (frequency, contention, steal).  The
    best of a few short windows: interruptions only ever slow a window."""
    best = 0.0
    for _ in range(windows):
        done = 0
        t0 = clock()
        deadline = t0 + window_s
        while True:
            for _ in range(2000):
                pass
            done += 2000
            now = clock()
            if now >= deadline:
                best = max(best, done / (now - t0))
                break
    return best


def disturbed(steal: float, spin_before: float, spin_after: float) -> bool:
    """A round is disturbed when the hypervisor stole CPU from it or the
    core's speed moved underneath it."""
    drift = abs(spin_after - spin_before) / spin_before if spin_before > 0 else 0.0
    return steal > STEAL_LIMIT or drift > SPIN_DRIFT_LIMIT


def peak_rss_mb() -> float:
    """Largest resident set of this process or any child it has waited for
    (Linux reports ``ru_maxrss`` in KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def shm_entries() -> Set[str]:
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()


def group_members(pgid: int) -> List[int]:
    """Live pids whose process group is ``pgid`` (zombies excluded)."""
    members = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue  # exited between listing and reading
        # comm may hold spaces and parentheses: split after the last ')'
        rest = stat[stat.rfind(")") + 2:].split()
        state, pgrp = rest[0], int(rest[2])
        if pgrp == pgid and state != "Z":
            members.append(int(entry.name))
    return members
