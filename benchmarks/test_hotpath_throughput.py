"""Hot-path throughput: fused execution layer vs. the pre-refactor path.

Measures events/sec for the three serving-critical loops — train step, eval
sweep and serve batch — with the fused execution layer (fused nn kernels,
``free_graph`` backward, vectorized sampler, BatchPrep neighborhood cache +
prefetch) against the legacy configuration (composite per-op autograd,
per-root Python sampling loop, no cache, no prefetch, a third forward per
train step).  The report goes to ``tmp_path`` — the committed
``BENCH_hotpath.json`` at the repo root is what ``repro.cli perf-bench``
writes, and a test run must leave the tree clean.

The assertions are deliberately looser than the measured speedups (≈1.9× /
2.1× / 1.3× on an idle machine) so a loaded CI box does not flake; the JSON
records the real numbers.
"""

import json

from repro.perf import run_hotpath_bench, write_report


def test_hotpath_throughput_report(tmp_path):
    report = run_hotpath_bench()
    out = write_report(report, tmp_path / "BENCH_hotpath.json")
    assert out.exists()
    saved = json.loads(out.read_text())

    train = saved["train_step"]
    evals = saved["eval_sweep"]
    serve = saved["serve_batch"]
    print(
        f"\nhotpath: train {train['speedup']:.2f}x "
        f"({train['fused_events_per_sec']:.0f} vs {train['legacy_events_per_sec']:.0f} ev/s), "
        f"traced {train['speedup_compiled_vs_fused']:.2f}x over fused, "
        f"eval {evals['speedup']:.2f}x, serve {serve['speedup']:.2f}x"
    )

    # the train step — the paper's headline loop — must show a real win
    # (measured ≈1.6–2.0× best-of-2; 1.3 leaves headroom for noisy runners)
    assert train["speedup"] >= 1.3
    # the traced step replays the identical kernel sequence minus the graph
    # construction / topo sort / gradient-dict allocation, so it must never
    # lose to the eager fused step (measured ≈1.10–1.16× best-of-3; the
    # bound is not-slower because the margin is within loaded-CI noise)
    assert train["speedup_compiled_vs_fused"] >= 0.97
    # eval overlaps sampling with compute on top of the fused kernels
    # (measured ≈1.5–2.1×)
    assert evals["speedup"] > 1.0
    # the serve flush is dedup-dominated, so at smoke scale its win is small
    # and its wall-clock ratio noisy — gate only against a real regression
    assert serve["speedup"] > 0.75
