"""Pure statistics for the lifecycle benchmark: percentiles, quartile spread,
A/B verdicts and the ``--compare`` table.

No numpy, no clock and (``load_runs`` aside) no I/O, so every rule here is
unit-tested on hand-written numbers.  The quartiles are the ones Python's
``statistics.quantiles(values, n=4)`` gives, because that is what the
accepting driver computes.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Sequence

MIN_SAMPLES = 3   # fewer runs than this cannot show a spread


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100) by linear interpolation between
    order statistics; ``inf`` samples (failed requests) sort last."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"q must be in [0, 100], got {q}")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    if ordered[lo] == ordered[hi]:
        # also keeps inf - inf out of the interpolation
        return float(ordered[lo])
    return float(ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo))


def quartiles(values: Sequence[float]) -> tuple:
    """``(q1, q2, q3)``; a single sample is its own quartiles."""
    if len(values) < 2:
        v = float(values[0])
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return float(q1), float(q2), float(q3)


def spread(values: Sequence[float]) -> float:
    """Inter-quartile range as a share of the median."""
    q1, _, q3 = quartiles(values)
    mid = median(values)
    if mid == 0:
        return 0.0 if q3 == q1 else float("inf")
    return (q3 - q1) / abs(mid)


def worse_by(base: float, cand: float, better: str) -> float:
    """Signed share of ``base`` by which ``cand`` is worse (negative: a gain)."""
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', got {better!r}")
    if base == 0:
        return 0.0 if cand == 0 else float("inf")
    change = (cand - base) / abs(base)
    return change if better == "lower" else -change


def verdict(
    base: Sequence[float], cand: Sequence[float], better: str, bound: float
) -> str:
    """``better`` / ``same`` / ``worse`` / ``unresolved`` for one metric on
    one workload.

    A regression is a median worse by more than the metric's bound and by
    more than either side's own spread; a gain is a median better by more
    than either side's spread.  Anything else is ``same`` — unless the
    spread itself exceeds the bound (or there are too few runs to know
    it), in which case no change can be ruled out: ``unresolved``.
    """
    if len(base) < MIN_SAMPLES or len(cand) < MIN_SAMPLES:
        return "unresolved"
    noise = max(spread(base), spread(cand))
    delta = worse_by(median(base), median(cand), better)
    if delta > bound and delta > noise:
        return "worse"
    if -delta > noise and delta < 0:
        return "better"
    if noise > bound:
        return "unresolved"
    return "same"


# ------------------------------------------------------------------ run files
def load_runs(directory: Path) -> List[dict]:
    """Every untraced run record (``*-trace0.json``) under ``directory``."""
    runs = []
    for path in sorted(Path(directory).glob("*-trace0.json")):
        runs.append(json.loads(path.read_text()))
    return runs


def group_values(runs: Iterable[Mapping]) -> Dict[str, Dict[str, List[float]]]:
    """``workload -> metric -> [value per run]`` from run records."""
    out: Dict[str, Dict[str, List[float]]] = {}
    for run in runs:
        per_metric = out.setdefault(run["workload"], {})
        for name, cell in run["metrics"].items():
            per_metric.setdefault(name, []).append(float(cell["value"]))
    return out


def failed_share(runs: Iterable[Mapping]) -> Dict[str, float]:
    """``workload -> failed / attempted`` summed over its runs."""
    attempted: Dict[str, int] = {}
    failed: Dict[str, int] = {}
    for run in runs:
        name = run["workload"]
        attempted[name] = attempted.get(name, 0) + int(run["attempted"])
        failed[name] = failed.get(name, 0) + int(run["failed"])
    return {name: failed[name] / max(1, attempted[name]) for name in attempted}


def compare(
    base_runs: Sequence[Mapping], cand_runs: Sequence[Mapping],
    metrics: Sequence[Mapping],
) -> List[dict]:
    """One row per workload × end-to-end metric present on both sides.

    ``metrics`` are the ``end_to_end`` entries of ``BENCHMARK.json`` (name,
    unit, better, bound)."""
    base, cand = group_values(base_runs), group_values(cand_runs)
    base_failed, cand_failed = failed_share(base_runs), failed_share(cand_runs)
    rows = []
    for workload in sorted(set(base) & set(cand)):
        for spec in metrics:
            name = spec["name"]
            a = base[workload].get(name)
            b = cand[workload].get(name)
            if not a or not b:
                continue
            a_q1, a_med, a_q3 = quartiles(a)
            b_q1, b_med, b_q3 = quartiles(b)
            rows.append({
                "workload": workload,
                "metric": name,
                "unit": spec["unit"],
                "bound": spec["bound"],
                "base": {"n": len(a), "median": a_med, "q1": a_q1, "q3": a_q3,
                         "spread": spread(a)},
                "cand": {"n": len(b), "median": b_med, "q1": b_q1, "q3": b_q3,
                         "spread": spread(b)},
                "worse_by": worse_by(a_med, b_med, spec["better"]),
                "verdict": verdict(a, b, spec["better"], spec["bound"]),
                "base_failed_share": base_failed[workload],
                "cand_failed_share": cand_failed[workload],
            })
    return rows


def format_compare(rows: Sequence[Mapping]) -> str:
    """The ``--compare`` table as markdown (also what the README commits)."""
    lines = [
        "| workload | metric | unit | A median (n, IQR%) | B median (n, IQR%) "
        "| B worse by | bound | verdict | failed A / B |",
        "|---|---|---|---|---|---|---|---|---|",
    ]
    for r in rows:
        a, b = r["base"], r["cand"]
        lines.append(
            f"| {r['workload']} | {r['metric']} | {r['unit']} "
            f"| {a['median']:.5g} ({a['n']}, {a['spread']:.1%}) "
            f"| {b['median']:.5g} ({b['n']}, {b['spread']:.1%}) "
            f"| {r['worse_by']:+.1%} | {r['bound']:.0%} | {r['verdict']} "
            f"| {r['base_failed_share']:.2%} / {r['cand_failed_share']:.2%} |"
        )
    return "\n".join(lines)
