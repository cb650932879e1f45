"""Merging per-rank trace files into one multi-lane timeline.

Each process in a run writes its own ``trace-<lane>.jsonl``; this module
aligns them onto one time axis and produces ``trace.merged.jsonl`` plus a
structural summary (per-lane phase breakdown, sync fraction, recovery
timeline) that ``repro.cli trace`` renders.

Alignment: every lane's header carries a ``clock_sync`` metadata line with
``(epoch_anchor, mono_anchor)`` sampled together at tracer start.  Span
``ts`` values are relative to that lane's ``mono_anchor``; shifting lane
``L`` by ``epoch_anchor_L - min(epoch_anchor)`` puts every lane on a shared
axis whose zero is the earliest tracer start, robust to ranks spawning
seconds apart (elastic respawns included) and to wall-clock steps after
start.

Robustness: a SIGKILLed rank leaves a trace that may end mid-line; readers
skip unparseable lines rather than failing, so partial traces still merge.
"""

from __future__ import annotations

import json
import re
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Union

MERGED_NAME = "trace.merged.jsonl"

#: span names whose time counts toward the lane's synchronization cost
SYNC_CATEGORY = "sync"

#: recovery-related events surfaced on the summary timeline
RECOVERY_SPANS = ("rollback", "respawn", "park", "machine-lost", "agent-join")

#: fabric lane names carry their host: ``h<machine>.rank<rank>``
_HOST_LANE_RE = re.compile(r"^h(\d+)\.")


def read_trace_file(path: Union[str, Path]) -> List[dict]:
    """Parse one JSONL trace file, skipping corrupt/truncated lines."""
    events: List[dict] = []
    try:
        with open(path, "r", errors="replace") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    event = json.loads(line)
                except ValueError:
                    continue  # torn tail from a killed process
                if isinstance(event, dict):
                    events.append(event)
    except OSError:
        return []
    return events


def _lane_files(trace_dir: Path) -> List[Path]:
    return sorted(
        p for p in trace_dir.glob("trace-*.jsonl") if p.name != MERGED_NAME
    )


def merge_trace_dir(
    trace_dir: Union[str, Path], out: Optional[Union[str, Path]] = None
) -> Optional[Path]:
    """Merge every ``trace-*.jsonl`` under ``trace_dir`` into one timeline.

    Returns the merged file path (default ``<trace_dir>/trace.merged.jsonl``)
    or ``None`` when the directory holds no trace files.  Metadata lines
    come first, then events sorted by aligned timestamp.
    """
    trace_dir = Path(trace_dir)
    files = _lane_files(trace_dir)
    if not files:
        return None
    merged = merge_events([read_trace_file(p) for p in files])
    out_path = Path(out) if out is not None else trace_dir / MERGED_NAME
    with open(out_path, "w") as fh:
        for event in merged:
            fh.write(json.dumps(event) + "\n")
    return out_path


def merge_events(lanes: Iterable[List[dict]]) -> List[dict]:
    """Align and interleave per-lane event lists into one sorted timeline.

    Lanes missing a ``clock_sync`` header (nothing flushed before death)
    fall back to a zero offset — their events stay, relatively ordered.
    """
    lanes = [lane for lane in lanes if lane]
    anchors: Dict[int, float] = {}
    for idx, lane in enumerate(lanes):
        for event in lane:
            if event.get("ph") == "M" and event.get("name") == "clock_sync":
                args = event.get("args", {})
                try:
                    anchors[idx] = float(args["epoch_anchor"])
                except (KeyError, TypeError, ValueError):
                    pass
                break
    base = min(anchors.values()) if anchors else 0.0

    meta: List[dict] = []
    spans: List[dict] = []
    for idx, lane in enumerate(lanes):
        offset_us = (anchors.get(idx, base) - base) * 1e6
        for event in lane:
            if event.get("ph") == "M":
                meta.append(event)
                continue
            event = dict(event)
            try:
                event["ts"] = round(float(event.get("ts", 0.0)) + offset_us, 1)
            except (TypeError, ValueError):
                event["ts"] = 0.0
            spans.append(event)
    spans.sort(key=lambda e: (e.get("ts", 0.0), e.get("pid", 0)))
    return meta + spans


def summarize_trace(events: List[dict]) -> dict:
    """Structural summary of a merged timeline.

    Returns::

        {
          "lanes": {pid: {"lane", "events", "wall_s", "sync_s",
                          "sync_frac", "phases": {name: {count, total_s}}}},
          "phases": {name: {"count", "total_s"}},        # across all lanes
          "hosts": {host: {"lanes", "events", "wall_s", "sync_s",
                           "sync_frac"}},    # multi-host (fabric) runs only
          "recovery": [ {"ts_s", "name", "lane", ...}, ...],
          "events": <int>,
        }

    Fabric runs prefix their lane names with the host id
    (``h<machine>.rank<rank>``, clock-aligned across hosts by the agents'
    NTP-style offset); any such lanes are additionally rolled up per host
    under ``hosts`` — ``wall_s``/``sync_s`` are the host's slowest lane
    (the rank that paces the machine), matching the bench's
    max-across-ranks convention.

    ``sync_s`` sums spans tagged ``args.cat == "sync"`` (barriers,
    allreduce, serial sections) **minus** spans tagged ``cat == "commit"``
    (write-backs and commit-slab writes are compute, not waiting) — the
    exact formula behind each rank's ``meta["bench"]["sync_s"]`` — clamped
    at zero; ``wall_s`` is the lane's first-to-last event extent, so
    ``sync_frac`` is directly comparable to ``python3 bench/run.py``'s
    ``runtime.sync_share``.
    """
    lane_names: Dict[int, str] = {}
    lanes: Dict[int, dict] = {}
    overall: Dict[str, dict] = {}
    recovery: List[dict] = []

    for event in events:
        pid = event.get("pid", 0)
        if event.get("ph") == "M":
            if event.get("name") == "process_name":
                lane_names[pid] = event.get("args", {}).get("name", f"pid{pid}")
            continue
        info = lanes.setdefault(
            pid,
            {
                "events": 0,
                "sync_s": 0.0,
                "commit_s": 0.0,
                "first_ts": None,
                "last_ts": 0.0,
                "phases": {},
            },
        )
        info["events"] += 1
        name = event.get("name", "?")
        ts = float(event.get("ts", 0.0))
        dur = float(event.get("dur", 0.0))
        if info["first_ts"] is None or ts < info["first_ts"]:
            info["first_ts"] = ts
        info["last_ts"] = max(info["last_ts"], ts + dur)
        args = event.get("args", {}) or {}

        phase = info["phases"].setdefault(name, {"count": 0, "total_s": 0.0})
        phase["count"] += 1
        phase["total_s"] += dur / 1e6
        agg = overall.setdefault(name, {"count": 0, "total_s": 0.0})
        agg["count"] += 1
        agg["total_s"] += dur / 1e6

        if args.get("cat") == SYNC_CATEGORY:
            info["sync_s"] += dur / 1e6
        elif args.get("cat") == "commit":
            info["commit_s"] += dur / 1e6
        if name in RECOVERY_SPANS:
            entry = {"ts_s": ts / 1e6, "name": name, "pid": pid}
            entry.update({k: v for k, v in args.items() if k != "cat"})
            if dur:
                entry["dur_s"] = dur / 1e6
            recovery.append(entry)

    out_lanes: Dict[int, dict] = {}
    for pid, info in sorted(lanes.items()):
        first = info["first_ts"] or 0.0
        wall = max(info["last_ts"] - first, 0.0) / 1e6
        sync = max(info["sync_s"] - info["commit_s"], 0.0)
        out_lanes[pid] = {
            "lane": lane_names.get(pid, f"pid{pid}"),
            "events": info["events"],
            "wall_s": wall,
            "sync_s": sync,
            "commit_s": info["commit_s"],
            "sync_frac": sync / wall if wall > 0 else 0.0,
            "phases": info["phases"],
        }
    hosts: Dict[str, dict] = {}
    for lane in out_lanes.values():
        m = _HOST_LANE_RE.match(lane["lane"])
        if m is None:
            continue
        host = f"h{m.group(1)}"
        agg = hosts.setdefault(
            host, {"lanes": 0, "events": 0, "wall_s": 0.0, "sync_s": 0.0}
        )
        agg["lanes"] += 1
        agg["events"] += lane["events"]
        agg["wall_s"] = max(agg["wall_s"], lane["wall_s"])
        agg["sync_s"] = max(agg["sync_s"], lane["sync_s"])
    for agg in hosts.values():
        agg["sync_frac"] = agg["sync_s"] / agg["wall_s"] if agg["wall_s"] > 0 else 0.0

    recovery.sort(key=lambda e: e["ts_s"])
    return {
        "lanes": out_lanes,
        "phases": overall,
        "hosts": dict(sorted(hosts.items())),
        "recovery": recovery,
        "events": sum(v["events"] for v in lanes.values()),
    }


def summarize_trace_file(path: Union[str, Path]) -> dict:
    return summarize_trace(read_trace_file(path))


def format_summary(summary: dict) -> str:
    """Human-readable rendering of :func:`summarize_trace` for the CLI."""
    lines: List[str] = []
    lines.append(f"events: {summary['events']}  lanes: {len(summary['lanes'])}")
    hosts = summary.get("hosts") or {}
    if hosts:
        lines.append("\nhosts:")
        for host, agg in hosts.items():
            lines.append(
                f"  {host}: {agg['lanes']} lanes, {agg['events']} events, "
                f"wall {agg['wall_s']:.3f}s, sync {agg['sync_s']:.3f}s "
                f"(frac {agg['sync_frac']:.3f})"
            )
    for pid, lane in summary["lanes"].items():
        lines.append(
            f"\nlane {lane['lane']} (pid {pid}): {lane['events']} events, "
            f"wall {lane['wall_s']:.3f}s, sync {lane['sync_s']:.3f}s "
            f"(frac {lane['sync_frac']:.3f})"
        )
        top = sorted(
            lane["phases"].items(), key=lambda kv: kv[1]["total_s"], reverse=True
        )
        for name, st in top[:12]:
            lines.append(
                f"  {name:<16} x{st['count']:<6} {st['total_s']:.4f}s"
            )
    if summary["recovery"]:
        lines.append("\nrecovery timeline:")
        for ev in summary["recovery"]:
            extras = ", ".join(
                f"{k}={v}" for k, v in ev.items() if k not in ("ts_s", "name", "pid")
            )
            lines.append(
                f"  t={ev['ts_s']:.3f}s  {ev['name']:<8} pid={ev['pid']}"
                + (f"  {extras}" if extras else "")
            )
    else:
        lines.append("\nrecovery timeline: (no recovery events)")
    return "\n".join(lines)
