"""One BLAS thread per process the library runs, unless the caller chose.

The BLAS thread count changes float bits, so every spawned rank and serving
replica pins one thread at start, and the local ``Session.fit`` /
``evaluate`` and the inference engine (in-thread serving) run inside the
same one-thread scope: a caller who sets none of the variables OpenBLAS
reads gets process and local runs that agree bit for bit, and the same bits
as a caller who pins through the environment.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.utils.fingerprint import (
    THREAD_ENV,
    blas_threads,
    numeric_fingerprint,
    one_blas_thread,
    pin_blas_threads,
    set_blas_threads,
)

SRC = Path(__file__).resolve().parent.parent / "src"

needs_bundled_blas = pytest.mark.skipif(
    blas_threads() is None, reason="numpy does not bundle scipy-openblas"
)


@pytest.fixture
def unpinned(monkeypatch):
    """No caller thread variables; the process count restored afterwards."""
    for name in THREAD_ENV:
        monkeypatch.delenv(name, raising=False)
    before = blas_threads()
    yield
    set_blas_threads(before)


@needs_bundled_blas
class TestThreadScope:
    def test_scope_runs_at_one_thread_and_restores_the_callers_count(self, unpinned):
        set_blas_threads(3)
        with one_blas_thread():
            assert blas_threads() == 1
        assert blas_threads() == 3

    def test_scope_restores_the_count_when_the_block_raises(self, unpinned):
        set_blas_threads(3)
        with pytest.raises(RuntimeError):
            with one_blas_thread():
                raise RuntimeError("boom")
        assert blas_threads() == 3

    def test_pin_sets_one_thread(self, unpinned):
        set_blas_threads(3)
        pin_blas_threads()
        assert blas_threads() == 1

    def test_a_caller_environment_is_honoured_and_recorded(self, unpinned, monkeypatch):
        monkeypatch.setenv("OMP_NUM_THREADS", "3")
        set_blas_threads(3)
        pin_blas_threads()
        with one_blas_thread():
            assert blas_threads() == 3
        fp = numeric_fingerprint()
        assert fp["blas_threads"] == 3
        assert fp["blas_thread_env"] == {"OMP_NUM_THREADS": "3"}

    def test_a_variable_openblas_does_not_read_is_not_a_choice(self, unpinned, monkeypatch):
        monkeypatch.setenv("MKL_NUM_THREADS", "3")
        set_blas_threads(3)
        with one_blas_thread():
            assert blas_threads() == 1
        assert blas_threads() == 3
        pin_blas_threads()
        assert blas_threads() == 1
        assert numeric_fingerprint()["blas_thread_env"] == {}


@needs_bundled_blas
def test_in_thread_serving_and_the_engine_compute_at_one_thread(unpinned):
    """A flush, a fold and a direct engine call all run at the thread count
    process serving replicas are pinned to, and hand the caller's back."""
    from repro.infer import InferenceEngine
    from repro.serve import MicroBatcher

    from helpers import toy_serving_setup

    model, decoder, g, serve_graph, _ = toy_serving_setup()
    engine = InferenceEngine(model, serve_graph, decoder=decoder,
                             append_on_observe=False)
    seen = []

    def recording(fn):
        def call(*args, **kwargs):
            seen.append(blas_threads())
            return fn(*args, **kwargs)
        return call

    engine.decoder = recording(decoder)
    model.forward_prepared = recording(model.forward_prepared)
    set_blas_threads(2)
    t = serve_graph.max_time + 1.0
    batcher = MicroBatcher(engine, max_batch_pairs=10 ** 6)
    handle = batcher.submit_rank(int(g.src[0]), np.arange(12, 16), t)
    assert batcher.poll() == 1 and handle.done
    engine.observe(g.src[:5], g.dst[:5], np.full(5, t), g.edge_feats[:5])
    engine.rank_candidates(int(g.src[1]), np.arange(12, 16), t + 1.0)
    engine.predict_links(g.src[:3], g.dst[:3], np.full(3, t + 1.0))
    assert seen and set(seen) == {1}
    assert blas_threads() == 2


FIT_SCRIPT = """
import hashlib
import json

from repro.api.config import DataConfig, ExperimentConfig, ModelConfig, TrainConfig
from repro.api.session import Session
from repro.parallel.config import ParallelConfig
from repro.runtime.launcher import apply_process_result, run_process_fit
from repro.serve.ingest import state_arrays
from repro.utils.fingerprint import blas_threads


def digest(sess):
    h = hashlib.sha256(sess.model.to_bytes() + sess.decoder.to_bytes())
    m, v, step = sess.trainer.optimizer.state_arrays()
    for arr in [*m, *v]:
        h.update(arr.tobytes())
    h.update(str(step).encode())
    for g in sess.trainer.groups:
        for name, arr in sorted(state_arrays(g.memory, g.mailbox).items()):
            h.update(name.encode() + arr.tobytes())
    return h.hexdigest()


if __name__ == "__main__":
    cfg = ExperimentConfig(
        data=DataConfig(dataset="wikipedia", scale=0.004, seed=0),
        model=ModelConfig(memory_dim=16, time_dim=8, embed_dim=16, num_neighbors=5),
        parallel=ParallelConfig.parse("2x1x1"),
        train=TrainConfig(epochs=3, batch_size=50, seed=0,
                          eval_candidates=10, num_negative_groups=4),
    )
    threads_before = blas_threads()
    proc = Session(cfg)
    meta, arrays, states = run_process_fit(cfg, proc.trainer, max_iterations=4)
    result = apply_process_result(proc.trainer, meta, arrays, states)
    local = Session(cfg)
    local_result = local.fit(max_iterations=4)
    print(json.dumps({
        "rank0": meta["numeric_fingerprint"],
        "threads_before": threads_before,
        "threads_after": blas_threads(),
        "process": [digest(proc), result.test_metric],
        "local": [digest(local), local_result.test_metric],
    }))
"""


def run_script(tmp_path: Path, source: str, pin: bool) -> dict:
    """Run ``source`` in a fresh interpreter with none of the thread
    variables set (``pin``: all of them set to 1); its last line is JSON."""
    script = tmp_path / "threads.py"
    script.write_text(source)
    env = {k: v for k, v in os.environ.items() if k not in THREAD_ENV}
    env["PYTHONPATH"] = str(SRC)
    if pin:
        env.update({name: "1" for name in THREAD_ENV})
    out = subprocess.run(
        [sys.executable, str(script)], env=env, capture_output=True,
        text=True, timeout=300, check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


@needs_bundled_blas
def test_unpinned_caller_gets_one_thread_ranks_and_the_pinned_bits(tmp_path):
    free = run_script(tmp_path, FIT_SCRIPT, pin=False)
    pinned = run_script(tmp_path, FIT_SCRIPT, pin=True)

    assert free["rank0"]["blas_threads"] == 1
    assert free["rank0"]["blas_thread_env"] == {}
    assert pinned["rank0"]["blas_thread_env"] == {name: "1" for name in THREAD_ENV}
    # the local fit ran at one thread and gave the caller's count back
    assert free["threads_after"] == free["threads_before"]
    # process == local, and unpinned == pinned, bit for bit
    assert free["process"] == free["local"]
    assert free["process"] == pinned["process"]
    assert pinned["process"] == pinned["local"]


SERVE_SCRIPT = """
import hashlib
import json

import numpy as np

from repro.api.config import DataConfig, ExperimentConfig, ModelConfig, TrainConfig
from repro.api.session import Session


def plan(graph, seed, n=16, candidates=64):
    rng = np.random.default_rng(seed)
    t_end = float(graph.timestamps[-1])
    return [(int(rng.integers(0, graph.num_nodes)),
             rng.integers(0, graph.num_nodes, size=candidates),
             float(rng.uniform(0.5 * t_end, t_end))) for _ in range(n)]


def scores(sess, process_replicas):
    h = hashlib.sha256()
    # a huge window pins batch composition to the explicit flush_all calls
    with sess.serve(replicas=1, process_replicas=process_replicas,
                    max_delay_ms=1e7, max_batch_pairs=10 ** 6) as cluster:
        for phase, chunk in enumerate(sess.held_out_stream(chunk=200)):
            if phase == 2:
                break
            handles = [cluster.submit_rank(*req) for req in plan(cluster.graph, phase)]
            cluster.flush_all()
            for handle in handles:
                h.update(handle.wait(30.0).tobytes())
            cluster.ingest(*chunk)
    return h.hexdigest()


if __name__ == "__main__":
    cfg = ExperimentConfig(
        data=DataConfig(dataset="wikipedia", scale=0.004, seed=0),
        model=ModelConfig(memory_dim=32, time_dim=16, embed_dim=32, num_neighbors=10),
        train=TrainConfig(epochs=1, batch_size=200, seed=0),
    )
    sess = Session(cfg)
    sess.fit(max_iterations=2)
    print(json.dumps({"threaded": scores(sess, False), "process": scores(sess, True)}))
"""


@needs_bundled_blas
def test_unpinned_caller_gets_the_same_scores_from_both_fleets(tmp_path):
    """Threaded and process serving agree byte for byte — before and after
    an ingest — for a caller who pins no thread count, and with a caller
    who does."""
    free = run_script(tmp_path, SERVE_SCRIPT, pin=False)
    pinned = run_script(tmp_path, SERVE_SCRIPT, pin=True)
    assert free["threaded"] == free["process"]
    assert free == pinned
