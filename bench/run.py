"""Lifecycle benchmark runner.

    python3 bench/run.py --workload NAME --seed S [--seconds N] [--trace 0|1]
    python3 bench/run.py --all [--seed S] [--trace 0|1]
    python3 bench/run.py --compare A_DIR B_DIR

One workload run = one fresh child process (``child.py``) in a pinned
environment and its own process group, under a whole-run watchdog.  The
runner checks what the child left behind (``/dev/shm`` segments, processes),
prints every metric by name with its unit, writes
``bench/out/runs/NAME-seedS-trace{0,1}.json`` and ends with the result
object on the last line of standard output: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.

Metric names, units, directions and bounds live in ``BENCHMARK.json`` at
the repository root; workload sizes in ``workloads.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import List, NoReturn, Optional

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out" / "runs"
WATCHDOG_S = 170.0        # the driver allows a run 180 s
LEFTOVER_GRACE_S = 3.0


def fail(message: str, code: int = 2) -> NoReturn:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(code)


def contract() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        fail(f"{path} is missing")
    return json.loads(path.read_text())


def child_env() -> dict:
    import host

    env = host.pinned_env()
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # the program tracer stays off: spans in the traced run are the bench's own
    env.pop("REPRO_TRACE_DIR", None)
    return env


def kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_child(workload: str, seed: int, seconds: float, trace: int, out: Path) -> dict:
    """Run one workload in a fresh interpreter; returns its record plus the
    leak problems found after it exited."""
    import host

    out.parent.mkdir(parents=True, exist_ok=True)
    out.unlink(missing_ok=True)
    shm_before = host.shm_entries()
    cmd = [sys.executable, str(BENCH / "child.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--out", str(out)]
    started = time.perf_counter()
    proc = subprocess.Popen(cmd, env=child_env(), cwd=str(ROOT),
                            start_new_session=True, stdout=sys.stderr)
    try:
        code = proc.wait(timeout=WATCHDOG_S)
    except subprocess.TimeoutExpired:
        kill_group(proc.pid)
        proc.wait()
        fail(f"{workload}: no result after {WATCHDOG_S:.0f} s; process group killed", 3)
    except BaseException:
        kill_group(proc.pid)
        proc.wait()
        raise
    problems: List[str] = []
    # helpers the child started (multiprocessing's resource tracker) exit on
    # their own once its pipes close; anything still alive after the grace
    # period was left behind
    deadline = time.monotonic() + LEFTOVER_GRACE_S
    while (left := host.group_members(proc.pid)) and time.monotonic() < deadline:
        time.sleep(0.05)
    if left:
        problems.append(f"{len(left)} process(es) left behind: {left}")
        kill_group(proc.pid)
    leaked = sorted(host.shm_entries() - shm_before)
    if leaked:
        problems.append(f"/dev/shm segments left behind: {leaked}")
        for name in leaked:
            try:
                os.unlink(os.path.join("/dev/shm", name))
            except OSError:
                pass
    if code != 0 or not out.is_file():
        fail(f"{workload}: child exited with code {code} and "
             f"{'a' if out.is_file() else 'no'} record", 4)
    record = json.loads(out.read_text())
    record["problems"] = record.get("problems", []) + problems
    record["wall_s"] = time.perf_counter() - started
    return record


def run_workload(spec: dict, workload: str, seed: int, seconds: float,
                 trace: int) -> dict:
    """Run, check against the contract's metric lists, print, write."""
    out = OUT / f"{workload}-seed{seed}-trace{trace}.json"
    record = run_child(workload, seed, seconds, trace, out)
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    source = record["layers"] if trace else record["metrics"]
    metrics = {}
    for m in wanted:
        cell = source.get(m["name"])
        if cell is None:
            record["problems"].append(f"metric {m['name']} was not measured")
            continue
        if cell["unit"] != m["unit"]:
            record["problems"].append(
                f"metric {m['name']} came in {cell['unit']}, contract says {m['unit']}")
        metrics[m["name"]] = cell
    extra = sorted(set(source) - {m["name"] for m in wanted})
    if extra:
        record["problems"].append(f"metrics not in BENCHMARK.json: {extra}")
    result = {
        "correct": not record["problems"],
        "attempted": int(record["attempted"]),
        "failed": int(record["failed"]),
        "metrics": metrics,
    }
    full = {"workload": workload, "seed": seed, "trace": trace,
            "seconds": seconds, **result,
            "end_to_end": record["metrics"], "layers": record.get("layers", {}),
            "problems": record["problems"],
            "wall_s": record["wall_s"], "detail": record["detail"]}
    out.write_text(json.dumps(full, indent=1) + "\n")

    print(f"== {workload}  seed={seed}  trace={trace}  "
          f"({record['wall_s']:.1f} s wall, "
          f"{len(record['detail']['rounds']) - 1} measured rounds)")
    shown = dict(record["metrics"])
    if trace:
        shown.update(metrics)
    width = max(len(name) for name in shown)
    for name, cell in shown.items():
        print(f"  {name:<{width}}  {cell['value']:>14.6g} {cell['unit']}")
    print(f"  {'ops_attempted':<{width}}  {result['attempted']:>14d} count")
    print(f"  {'ops_failed':<{width}}  {result['failed']:>14d} count")
    for p in record["problems"]:
        print(f"  PROBLEM: {p}")
    return full


def run_all(spec: dict, seed: int, seconds: float, trace: int) -> List[dict]:
    from workloads import WORKLOADS

    runs = [run_workload(spec, w["name"], seed, seconds, trace)
            for w in spec["workloads"]]
    # scaling over the single-worker run of the same data: the one layer row
    # a single workload run cannot know
    base = runs[0]
    solo = base["end_to_end"]["train_events_per_s"]["value"]
    print(f"== runtime.scaling_x (train_events_per_s over {base['workload']}'s)")
    for r in runs:
        if WORKLOADS[r["workload"]].dataset == WORKLOADS[base["workload"]].dataset:
            rate = r["end_to_end"]["train_events_per_s"]["value"]
            print(f"  {r['workload']:<18} {rate / solo:8.3f} x")
    return runs


def compare(spec: dict, a_dir: Path, b_dir: Path) -> int:
    import stats

    a, b = stats.load_runs(a_dir), stats.load_runs(b_dir)
    if not a or not b:
        fail(f"no *-trace0.json run records under {a_dir if not a else b_dir}")
    rows = stats.compare(a, b, spec["end_to_end"])
    print(stats.format_compare(rows))
    return 1 if any(r["verdict"] == "worse" for r in rows) else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--all", action="store_true")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A_DIR", "B_DIR"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = contract()
    if args.compare:
        return compare(spec, *args.compare)
    if not (ROOT / "src" / "repro" / "api" / "__init__.py").is_file():
        fail(f"the library under test is not in this checkout ({ROOT / 'src' / 'repro'})")
    seconds = args.seconds if args.seconds is not None else float(spec["run_seconds"])
    names = [w["name"] for w in spec["workloads"]]
    if args.all:
        runs = run_all(spec, args.seed, seconds, args.trace)
        return 0 if all(r["correct"] for r in runs) else 1
    if args.workload not in names:
        fail(f"--workload must be one of {names}, got {args.workload!r}")
    full = run_workload(spec, args.workload, args.seed, seconds, args.trace)
    print(json.dumps({k: full[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
