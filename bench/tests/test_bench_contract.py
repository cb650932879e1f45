"""``BENCHMARK.json`` against the driver's schema and against the code: the
workloads it names exist, every module is import-safe, and the host probes
parse what the kernel gives them.  Nothing here launches a workload."""

import importlib
import json
import re
from pathlib import Path

import pytest

import host
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")


def test_benchmark_json_has_exactly_the_contract_keys():
    assert sorted(SPEC) == sorted(
        ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"])
    assert SPEC["paths"] == ["bench"]
    assert SPEC["command"] == ["python3", "bench/run.py"]
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    assert len((ROOT / "BENCHMARK.json").read_bytes()) <= 64 * 1024


def test_workloads_match_the_code_and_say_why():
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    for w in SPEC["workloads"]:
        assert sorted(w) == ["name", "why"]
        assert NAME.match(w["name"])
        assert 0 < len(w["why"]) <= 200 and "\n" not in w["why"]


def test_metrics_are_well_formed_and_named_once():
    e2e, layers = SPEC["end_to_end"], SPEC["per_layer"]
    assert 1 <= len(e2e) <= 16 and 1 <= len(layers) <= 128
    for m in e2e:
        assert sorted(m) == ["better", "bound", "name", "unit"]
        assert 0 < m["bound"] <= 0.25
    for m in layers:
        assert sorted(m) == ["better", "name", "unit"]
    names = [m["name"] for m in e2e + layers] + [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    for m in e2e + layers:
        assert NAME.match(m["name"]) and UNIT.match(m["unit"])
        assert m["better"] in ("lower", "higher")
    setup = next(m for m in e2e if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in e2e)


def test_the_run_fits_the_drivers_time_budget():
    runs = 4 + 22 * len(SPEC["workloads"])
    # warm-up round, import probes and checks come on top of run_seconds
    assert runs * (SPEC["run_seconds"] + 12) <= 3420


def test_workload_sizes_hold_the_issues_invariants():
    for w in WORKLOADS.values():
        i, j, k = w.ijk
        assert w.ranks == i * k <= 2                       # nproc of the reference host
        assert (w.backend == "process") == (w.ranks > 1)
        assert w.train_events == w.iterations * i * j * k * 200
        assert 0 < w.train_frac + w.val_frac < 1
        assert w.open_requests * 0.05 >= 10                # samples beyond the p95
        warm = w.warmup()
        assert warm.iterations < w.iterations and warm.name == w.name
    hot = [w for w in WORKLOADS.values() if w.dataset == "hotpath"]
    assert len({w.train_events for w in hot}) == 1         # same edges traversed


@pytest.mark.parametrize(
    "module", ["run", "child", "lifecycle", "loadgen", "ladder", "spans", "stats",
               "host", "workloads"])
def test_every_module_is_import_safe(module, capsys):
    # the process backend spawns ranks that re-import the main module
    importlib.import_module(module)
    assert capsys.readouterr().out == ""


def test_host_probes():
    ticks = host.cpu_ticks()
    assert ticks is None or (ticks["total"] > 0 and 0 <= ticks["steal"] <= ticks["total"])
    assert host.steal_share({"steal": 10, "total": 1000}, {"steal": 40, "total": 2000}) == 0.03
    assert host.steal_share(None, None) == 0.0
    assert host.disturbed(0.03, 100.0, 100.0)
    assert host.disturbed(0.0, 100.0, 85.0)
    assert not host.disturbed(0.01, 100.0, 95.0)
    env = host.pinned_env({"PATH": "/bin", "OMP_NUM_THREADS": "8"})
    assert env["OMP_NUM_THREADS"] == env["OPENBLAS_NUM_THREADS"] == env["MKL_NUM_THREADS"] == "1"
    assert env["PATH"] == "/bin"
    assert host.peak_rss_mb() > 1.0
    import os
    assert os.getpid() in host.group_members(os.getpgid(0))
    fakes = iter([0.0, 0.01, 0.02, 0.03, 0.04, 0.05])
    assert host.spin_rate(windows=1, window_s=0.01, clock=lambda: next(fakes)) > 0
