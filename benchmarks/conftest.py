"""Shared fixtures and reporting helpers for the paper-reproduction benches.

Every bench prints a paper-vs-measured table via :func:`report`; the rows
also land in EXPERIMENTS.md generation.  Datasets are session-cached because
several figures share them.

Scale note: benches run the synthetic stand-ins at a small scale (seconds,
not GPU-days).  Absolute metrics therefore differ from the paper; each bench
asserts the *shape* the paper claims (orderings, monotonicity, ratios).
"""

from __future__ import annotations

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

from repro.data import load_dataset
from repro.train import TrainerSpec

# one place to tune bench runtime
BENCH_SCALE = {
    "wikipedia": 0.008,
    "reddit": 0.003,
    "mooc": 0.004,
    "flights": 0.003,
    "gdelt": 0.00004,
}

BENCH_SPEC = TrainerSpec(
    batch_size=100,
    memory_dim=24,
    time_dim=12,
    embed_dim=24,
    base_lr=1e-3,
    num_negative_groups=8,
    eval_candidates=20,
    static_pretrain_epochs=5,
)


@pytest.fixture(scope="session")
def datasets():
    cache = {}

    def get(name: str, scale: float | None = None, seed: int = 0):
        key = (name, scale, seed)
        if key not in cache:
            cache[key] = load_dataset(
                name, scale=scale if scale is not None else BENCH_SCALE[name], seed=seed
            )
        return cache[key]

    return get


def report(title: str, paper_rows, our_rows, note: str = "") -> None:
    """Print a paper-vs-measured comparison block."""
    print(f"\n{'=' * 72}\n{title}\n{'-' * 72}")
    print("PAPER:")
    for row in paper_rows:
        print(f"    {row}")
    print("OURS (synthetic substrate, scaled):")
    for row in our_rows:
        print(f"    {row}")
    if note:
        print(f"NOTE: {note}")
    print("=" * 72)
