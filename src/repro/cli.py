"""Command-line interface: ``python -m repro.cli <command>``.

Every subcommand parses its flags into a declarative
:class:`repro.api.ExperimentConfig` and drives a :class:`repro.api.Session`
(the facade over trainer / evaluation / inference / serving).  Two flags are
therefore universal:

``--config X``
    Either the paper's compact ``'ixjxk[@machines]'`` parallel notation
    (e.g. ``--config 1x2x4``) or an ExperimentConfig JSON document — a file
    path, or ``-`` to read from stdin.  A JSON config fully describes the
    experiment; the compact notation only sets the parallel section, with
    the remaining sections built from the other flags.
``--dump-config``
    Print the resolved ExperimentConfig as JSON and exit without running.
    ``train --dump-config | train --config -`` round-trips byte-identically.

Commands
--------
train       train a TGN under an i×j×k configuration and print the result
            (``--checkpoint-dir`` writes periodic resumable snapshots;
            ``--backend process`` runs the fault-tolerant process fleet;
            ``--backend fabric`` runs the multi-host agent fabric)
agent       run a fabric host agent: join a controller's rendezvous socket
            and spawn this machine's slice of the rank grid (the daemon a
            ``fit(backend='fabric', managed_agents=False)`` waits for)
resume      continue an interrupted ``train --checkpoint-dir`` run from its
            snapshot directory — bitwise identical to never interrupting it
plan        run the §3.2.4 planner for a cluster + dataset
stats       print Table-2-style statistics of a generated dataset
throughput  model Fig-12-style throughput for a system / configuration
serve-bench the elastic serving drill: train briefly, then drive a threaded
            and a process replica fleet through autoscaling, continual
            refit + hot swaps, hedging and a replica SIGKILL, check every
            response bytewise against a reference, and exit non-zero on
            any failed gate (``--report`` writes the JSON report)
trace       merge + summarize a span-trace directory: per-lane phase
            breakdown, sync fraction, recovery timeline
chaos       seeded randomized fault-injection matrix: draw N random fault
            schedules (site x kind x rank x iteration, multi-fault and
            finalization-window included), run each through the
            differential recovery oracle, and fail loudly — with the
            reproducing seed — on any non-bitwise recovery

Dataset choices come from the ``repro.api`` registry, so datasets added with
``@register_dataset`` show up in ``--help`` automatically.

Performance numbers (training and evaluation throughput, serving latency,
ingest rate, the per-layer ladder) come from one place, ``python3
bench/run.py`` at the repo root, not from this CLI.
"""

from __future__ import annotations

import argparse
import dataclasses
import re
import sys
from pathlib import Path
from typing import List, Optional

from .api.config import (
    DataConfig,
    ExperimentConfig,
    ModelConfig,
    ObsConfig,
    TrainConfig,
)
from .api.registry import DATASETS
from .api.session import Session
from .data import PAPER_TABLE2
from .parallel import HardwareSpec, ParallelConfig, plan_for_graph
from .sim import CostModel, WorkloadSpec, g4dn_metal
from .utils import Timer, format_table


def _parse_config(text: str) -> ParallelConfig:
    """Parse the paper's 'ixjxk[@machines]' notation, e.g. '1x2x4' or
    '2x2x8@4'.  Thin argparse shim over :meth:`ParallelConfig.parse`."""
    try:
        return ParallelConfig.parse(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


_NOTATION_RE = re.compile(r"^\d+x\d+x\d+(@\d+)?$", re.IGNORECASE)


def _config_arg(text: str):
    """The universal ``--config`` value: 'ixjxk[@machines]' notation, a path
    to an ExperimentConfig JSON file, or '-' for JSON on stdin."""
    if _NOTATION_RE.match(text.strip()):
        # anything shaped like the notation is the notation: a semantic error
        # (e.g. k not a multiple of machines) must surface, not fall through
        # to a bogus "no such file" complaint
        return _parse_config(text.strip())
    try:
        if text == "-":
            return ExperimentConfig.from_json(sys.stdin.read())
        path = Path(text)
        if not path.exists():
            raise argparse.ArgumentTypeError(
                f"--config {text!r} is neither ixjxk[@machines] notation "
                f"nor an existing JSON file (use '-' for stdin)"
            )
        return ExperimentConfig.from_json(path.read_text())
    except argparse.ArgumentTypeError:
        raise
    except (ValueError, TypeError, OSError) as exc:
        raise argparse.ArgumentTypeError(f"invalid experiment config: {exc}") from exc


def _add_config_flags(sub: argparse.ArgumentParser,
                      default: Optional[ParallelConfig] = None) -> None:
    sub.add_argument(
        "--config", type=_config_arg, default=default or ParallelConfig(),
        help="ixjxk[@machines] parallel notation, an ExperimentConfig JSON "
             "file, or '-' (JSON on stdin)",
    )
    sub.add_argument(
        "--dump-config", action="store_true",
        help="print the resolved ExperimentConfig JSON and exit",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.cli", description="DistTGL reproduction CLI"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    datasets = DATASETS.available()

    p_train = sub.add_parser("train", help="train a TGN under an i x j x k config")
    p_train.add_argument("--dataset", choices=datasets, default="wikipedia")
    p_train.add_argument("--scale", type=float, default=0.01)
    p_train.add_argument("--epochs", type=int, default=10)
    p_train.add_argument("--batch-size", type=int, default=100)
    p_train.add_argument("--memory-dim", type=int, default=32)
    p_train.add_argument("--static-dim", type=int, default=0)
    p_train.add_argument("--lr", type=float, default=1e-3)
    p_train.add_argument("--seed", type=int, default=0)
    p_train.add_argument("--backend", choices=["local", "process", "fabric"],
                         default="local",
                         help="execution engine: logical trainers in-process, "
                              "the repro.runtime i*k worker-process backend, or "
                              "the multi-host agent fabric (identical results, "
                              "real parallelism)")
    p_train.add_argument("--rendezvous", default=None, metavar="HOST:PORT",
                         help="fabric controller bind address (default: an "
                              "ephemeral localhost port); agents join it with "
                              "`repro.cli agent --join HOST:PORT`")
    p_train.add_argument("--external-agents", action="store_true",
                         help="fabric: wait for externally launched "
                              "`repro.cli agent` processes instead of "
                              "spawning them (use with --rendezvous)")
    p_train.add_argument("--agents", type=int, default=None, metavar="N",
                         help="fabric: assert the expected agent count "
                              "(must equal the plan's machines)")
    p_train.add_argument("--save", default=None, metavar="DIR",
                         help="persist the session (config + checkpoint) here")
    p_train.add_argument("--checkpoint-dir", default=None, metavar="DIR",
                         help="write periodic mid-run snapshots here "
                              "(resume with `repro.cli resume --dir DIR`)")
    p_train.add_argument("--checkpoint-every", type=int, default=None,
                         metavar="N",
                         help="snapshot cadence in block boundaries "
                              "(default: train.checkpoint_every from the config)")
    p_train.add_argument("--trace-dir", default=None, metavar="DIR",
                         help="record span telemetry (Chrome trace-event "
                              "JSONL per process) here; view with "
                              "`repro.cli trace --dir DIR`")
    p_train.add_argument("--compile", action="store_true",
                         help="trace-and-replay step compiler (repro.nn.tape): "
                              "record each step shape once, replay it as a "
                              "flat tape with pooled buffers (bitwise "
                              "identical results; REPRO_COMPILE=1/0 overrides)")
    p_train.add_argument("--quiet", action="store_true")
    _add_config_flags(p_train)

    p_agent = sub.add_parser(
        "agent",
        help="run a fabric host agent: join a controller rendezvous and "
             "spawn this machine's ranks",
    )
    p_agent.add_argument("--join", required=True, metavar="HOST:PORT",
                         help="the fabric controller's rendezvous address "
                              "(printed by / passed to the fabric fit)")
    p_agent.add_argument("--timeout", type=float, default=600.0,
                         help="control-channel receive timeout in seconds")
    p_agent.add_argument("--quiet", action="store_true")

    p_resume = sub.add_parser(
        "resume",
        help="continue an interrupted train run from its checkpoint directory",
    )
    p_resume.add_argument("--dir", required=True, metavar="DIR",
                          help="checkpoint directory written by "
                               "`train --checkpoint-dir` (config + "
                               "checkpoint.npz + resume.json)")
    p_resume.add_argument("--backend", choices=["local", "process", "fabric"],
                          default="local")
    p_resume.add_argument("--checkpoint-dir", default=None, metavar="DIR",
                          help="keep snapshotting the continued run here "
                               "(default: the --dir being resumed, so a "
                               "second interruption stays resumable; "
                               "'' disables)")
    p_resume.add_argument("--checkpoint-every", type=int, default=None,
                          metavar="N", help="snapshot cadence in block "
                                            "boundaries (default: config)")
    p_resume.add_argument("--save", default=None, metavar="DIR",
                          help="persist the finished session here")
    p_resume.add_argument("--quiet", action="store_true")

    p_plan = sub.add_parser("plan", help="choose (i, j, k) for a cluster")
    p_plan.add_argument("--dataset", choices=datasets, default="wikipedia")
    p_plan.add_argument("--scale", type=float, default=0.01)
    p_plan.add_argument("--machines", type=int, default=1)
    p_plan.add_argument("--gpus", type=int, default=8)
    p_plan.add_argument("--max-missing", type=float, default=0.5)
    _add_config_flags(p_plan)

    p_stats = sub.add_parser("stats", help="Table-2 statistics of a dataset")
    p_stats.add_argument("--dataset", choices=datasets, default="wikipedia")
    p_stats.add_argument("--scale", type=float, default=0.01)
    _add_config_flags(p_stats)

    p_tput = sub.add_parser("throughput", help="modeled throughput (Fig. 12)")
    p_tput.add_argument("--system", choices=["tgn", "tgl", "disttgl"], default="disttgl")
    p_tput.add_argument("--local-batch", type=int, default=600)
    p_tput.add_argument("--edge-dim", type=int, default=172)
    _add_config_flags(p_tput)

    p_serve = sub.add_parser(
        "serve-bench",
        help="elastic serving drill: autoscale, hot swaps, hedging and a "
             "replica SIGKILL, every response checked bytewise",
    )
    p_serve.add_argument("--ticks", type=int, default=6,
                         help="load bursts to run")
    p_serve.add_argument("--burst", type=int, default=12,
                         help="requests per burst")
    p_serve.add_argument("--report", default=None, metavar="PATH",
                         help="write the JSON report here")
    p_serve.add_argument("--no-process-stage", action="store_true",
                         help="skip the process-fleet/SIGKILL stage "
                              "(threaded + hedging only)")
    p_serve.add_argument("--quiet", action="store_true")
    _add_config_flags(p_serve)

    p_trace = sub.add_parser(
        "trace",
        help="merge + summarize a span-trace directory "
             "(written by train --trace-dir or REPRO_TRACE_DIR)",
    )
    p_trace.add_argument("--dir", required=True, metavar="DIR",
                         help="trace directory holding trace-*.jsonl lane "
                              "files (or a pre-merged trace.merged.jsonl)")
    p_trace.add_argument("--json", action="store_true",
                         help="print the structural summary as JSON instead "
                              "of the human-readable rendering")

    p_chaos = sub.add_parser(
        "chaos",
        help="seeded randomized fault matrix: N random schedules through "
             "the differential recovery oracle (CI's chaos-matrix job)",
    )
    p_chaos.add_argument("--dataset", choices=datasets, default="wikipedia")
    p_chaos.add_argument("--scale", type=float, default=0.01)
    p_chaos.add_argument("--seeds", type=int, default=5, metavar="N",
                         help="how many random schedules to draw and run")
    p_chaos.add_argument("--seed-base", type=int, default=0,
                         help="first schedule seed (seeds are base..base+N-1)")
    p_chaos.add_argument("--backends", default="process",
                         help="comma-separated faulted backends to sweep "
                              "(process, fabric)")
    p_chaos.add_argument("--iterations", type=int, default=8,
                         help="training iterations per run (faults are drawn "
                              "inside this range, plus the finalization "
                              "window after it)")
    p_chaos.add_argument("--max-faults", type=int, default=2,
                         help="max concurrent/sequential faults per schedule")
    p_chaos.add_argument("--timeout", type=float, default=180.0,
                         help="per-run fit timeout in seconds")
    p_chaos.add_argument("--artifacts", default=None, metavar="DIR",
                         help="write failing schedules (schedule.json + "
                              "differences) and per-run traces here — the "
                              "directory CI uploads on failure")
    p_chaos.add_argument("--quiet", action="store_true")
    _add_config_flags(p_chaos, default=ParallelConfig(i=2, j=1, k=1))

    return parser


# ------------------------------------------------------------ config builders
def _experiment_from_train_args(args) -> ExperimentConfig:
    """The train command's flags -> ExperimentConfig (unless --config already
    supplied a full JSON document, which then wins)."""
    if isinstance(args.config, ExperimentConfig):
        return args.config
    md = args.memory_dim
    return ExperimentConfig(
        data=DataConfig(dataset=args.dataset, scale=args.scale, seed=args.seed),
        model=ModelConfig(
            memory_dim=md, embed_dim=md, time_dim=max(8, md // 2),
            static_dim=args.static_dim,
        ),
        parallel=args.config,
        train=TrainConfig(
            epochs=args.epochs, batch_size=args.batch_size, base_lr=args.lr,
            seed=args.seed, compile=getattr(args, "compile", False),
        ),
    )


def _experiment_from_misc_args(args) -> ExperimentConfig:
    """plan/stats/throughput: only some sections are meaningful,
    but --dump-config still emits a complete, loadable document."""
    if isinstance(args.config, ExperimentConfig):
        return args.config
    kwargs = {"parallel": args.config}
    if hasattr(args, "dataset"):
        kwargs["data"] = DataConfig(
            dataset=args.dataset, scale=args.scale,
            seed=getattr(args, "seed", 0),
        )
    return ExperimentConfig(**kwargs)


def _maybe_dump(args, cfg: ExperimentConfig) -> bool:
    if getattr(args, "dump_config", False):
        print(cfg.to_json())
        return True
    return False


# ------------------------------------------------------------------ commands
def cmd_train(args) -> int:
    cfg = _experiment_from_train_args(args)
    if args.trace_dir:
        # the flag wins even over a full --config JSON: asking for a trace
        # on the command line is an explicit request
        cfg = dataclasses.replace(
            cfg,
            obs=ObsConfig(
                trace_dir=str(args.trace_dir),
                histogram_reservoir=cfg.obs.histogram_reservoir,
            ),
        )
    if _maybe_dump(args, cfg):
        return 0
    sess = Session(cfg)
    fit_kwargs = {}
    if args.backend == "fabric":
        fit_kwargs = dict(
            rendezvous=args.rendezvous,
            managed_agents=not args.external_agents,
            agents=args.agents,
        )
    with Timer() as t:
        result = sess.fit(
            verbose=not args.quiet,
            backend=args.backend,
            checkpoint_dir=args.checkpoint_dir,
            checkpoint_every=args.checkpoint_every,
            **fit_kwargs,
        )
    metric = "MRR" if sess.task == "link" else "F1-micro"
    if args.backend == "process":
        backend_note = f" | {cfg.parallel.i * cfg.parallel.k} worker processes"
    elif args.backend == "fabric":
        world = cfg.parallel.i * cfg.parallel.j * cfg.parallel.k
        backend_note = (
            f" | {world} ranks on {cfg.parallel.machines} machine agent(s)"
        )
    else:
        backend_note = ""
    print(
        f"[{cfg.parallel.label()}] {cfg.data.dataset}: best val {metric} "
        f"{result.best_val:.4f} | test {metric} {result.test_metric:.4f} | "
        f"{result.iterations_run} iterations | {t.elapsed:.1f}s{backend_note}"
    )
    if args.save:
        path = sess.save(args.save)
        print(f"session saved to {path}")
    if args.trace_dir:
        print(
            f"trace written to {args.trace_dir} "
            f"(summarize with `repro.cli trace --dir {args.trace_dir}`)"
        )
    return 0


def cmd_agent(args) -> int:
    from .runtime.fabric import agent_main

    return agent_main(args.join, timeout=args.timeout, quiet=args.quiet)


def cmd_resume(args) -> int:
    sess = Session.resume(args.dir)
    start = sess.trainer._iteration
    # the continued run keeps checkpointing (into the same directory unless
    # redirected) — a resumed run interrupted again must stay resumable;
    # every backend supports periodic snapshots now
    ckpt_dir = args.dir if args.checkpoint_dir is None else args.checkpoint_dir
    with Timer() as t:
        result = sess.fit(
            verbose=not args.quiet,
            backend=args.backend,
            checkpoint_dir=ckpt_dir or None,
            checkpoint_every=args.checkpoint_every,
        )
    metric = "MRR" if sess.task == "link" else "F1-micro"
    print(
        f"[{sess.config.parallel.label()}] resumed {sess.config.data.dataset} "
        f"at iteration {start}: best val {metric} {result.best_val:.4f} | "
        f"test {metric} {result.test_metric:.4f} | "
        f"{result.iterations_run} iterations | {t.elapsed:.1f}s"
    )
    if args.save:
        path = sess.save(args.save)
        print(f"session saved to {path}")
    return 0


def cmd_plan(args) -> int:
    cfg = _experiment_from_misc_args(args)
    if _maybe_dump(args, cfg):
        return 0
    ds = cfg.build_dataset()
    hw = HardwareSpec(machines=args.machines, gpus_per_machine=args.gpus)
    trace = plan_for_graph(hw, ds.graph, max_missing_fraction=args.max_missing)
    for note in trace.notes:
        print(f"* {note}")
    print(f"=> {trace.config.label()} (local batch {trace.local_batch})")
    return 0


def cmd_stats(args) -> int:
    cfg = _experiment_from_misc_args(args)
    if _maybe_dump(args, cfg):
        return 0
    ds = cfg.build_dataset()
    stats = ds.graph.stats()
    paper = PAPER_TABLE2.get(cfg.data.dataset)
    if paper is None:
        # synthetic-only workloads (e.g. 'hotpath') have no Table-2 row
        rows = [(k, v) for k, v in sorted(stats.items())]
        print(format_table(["stat", "generated"], rows))
        return 0
    rows = [
        ("|V|", stats["num_nodes"], f"{paper.num_nodes:,}"),
        ("|E|", stats["num_events"], f"{paper.num_events:,}"),
        ("max(t)", f"{stats['max_time']:.3g}", f"{paper.max_time:.3g}"),
        ("d_e", stats["edge_dim"], paper.edge_dim),
        ("bipartite", stats["bipartite"], paper.bipartite),
        ("unique-edge frac", f"{stats['unique_edge_fraction']:.3f}", "-"),
        ("mean degree", f"{stats['mean_degree']:.1f}", "-"),
    ]
    print(format_table(["stat", "generated", "paper"], rows))
    return 0


def cmd_throughput(args) -> int:
    cfg = _experiment_from_misc_args(args)
    if _maybe_dump(args, cfg):
        return 0
    pc = cfg.parallel
    w = WorkloadSpec(local_batch=args.local_batch, edge_dim=args.edge_dim)
    cm = CostModel(w, g4dn_metal(pc.machines))
    total = cm.throughput(args.system, pc)
    print(
        f"{args.system} {pc.label()}@{pc.machines}: "
        f"{total / 1e3:.1f} kE/s total, "
        f"{total / pc.total_gpus / 1e3:.1f} kE/s per GPU"
    )
    return 0


def cmd_serve_bench(args) -> int:
    from .serve.bench import default_config, run_elastic_bench

    if isinstance(args.config, ExperimentConfig):
        cfg = args.config
    else:
        cfg = dataclasses.replace(default_config(), parallel=args.config)
    if _maybe_dump(args, cfg):
        return 0
    report = run_elastic_bench(
        cfg,
        ticks=args.ticks,
        burst=args.burst,
        process_stage=not args.no_process_stage,
        out=args.report,
        verbose=not args.quiet,
    )
    t = report["threaded"]
    print(
        f"threaded: {t['requests']} requests, {t['violations']} violations, "
        f"{t['scale_ups']} up / {t['scale_downs']} down, "
        f"{t['hot_swaps']} hot-swaps "
        f"(p99 {t['latency_ms']['p99']:.2f} ms)"
    )
    h = report["hedging"]
    print(
        f"hedging: p99 {h['off']['p99']:.2f} -> {h['on']['p99']:.2f} ms "
        f"({h['on']['hedge_rate']:.0%} hedged)"
    )
    if "process" in report:
        p = report["process"]
        print(
            f"process: {p['requests']} requests, {p['violations']} "
            f"violations, {p['recoveries']} recoveries, "
            f"{p['hot_swaps']} hot-swaps"
        )
    gates = " ".join(f"{k}={'ok' if v else 'FAIL'}" for k, v in report["ok"].items())
    print(f"gates: {gates}")
    if args.report:
        print(f"report written to {args.report}")
    return 0 if report["passed"] else 1


def cmd_trace(args) -> int:
    import json as _json

    from .obs.merge import (
        MERGED_NAME,
        format_summary,
        merge_trace_dir,
        summarize_trace_file,
    )

    trace_dir = Path(args.dir)
    if not trace_dir.is_dir():
        print(f"--dir {args.dir!r} is not a directory")
        return 2
    merged = trace_dir / MERGED_NAME
    if not merged.exists():
        # runs killed before their launcher's merge step (chaos runs, ^C)
        # leave only the per-lane files — merge them on demand
        merged = merge_trace_dir(trace_dir)
        if merged is None:
            print(f"no trace-*.jsonl files under {trace_dir}")
            return 2
    summary = summarize_trace_file(merged)
    if args.json:
        print(_json.dumps(summary, indent=2, sort_keys=True))
    else:
        print(f"merged trace: {merged}")
        print(format_summary(summary))
    return 0


def cmd_chaos(args) -> int:
    import json as _json

    from .testing.chaos import ChaosSchedule, run_chaos_schedule

    backends = [b.strip() for b in str(args.backends).split(",") if b.strip()]
    bad = [b for b in backends if b not in ("process", "fabric")]
    if bad or not backends:
        print(f"--backends must name process and/or fabric, got {args.backends!r}")
        return 2
    plan = (
        args.config.parallel
        if isinstance(args.config, ExperimentConfig)
        else args.config
    )
    world = plan.i * plan.j * plan.k
    md = 16
    base_cfg = (
        args.config
        if isinstance(args.config, ExperimentConfig)
        else ExperimentConfig(
            data=DataConfig(dataset=args.dataset, scale=args.scale, seed=0),
            model=ModelConfig(memory_dim=md, embed_dim=md, time_dim=8),
            parallel=plan,
            train=TrainConfig(epochs=10, batch_size=100, seed=0),
        )
    )
    if _maybe_dump(args, base_cfg):
        return 0
    artifacts = Path(args.artifacts) if args.artifacts else None
    failures = 0
    runs = 0
    for backend in backends:
        for seed in range(args.seed_base, args.seed_base + args.seeds):
            schedule = ChaosSchedule.random(
                seed,
                world=world,
                max_iteration=args.iterations,
                backend=backend,
                max_faults=args.max_faults,
            )
            cfg = base_cfg
            run_dir = None
            if artifacts is not None:
                run_dir = artifacts / f"{backend}-seed{seed}"
                run_dir.mkdir(parents=True, exist_ok=True)
                cfg = dataclasses.replace(
                    base_cfg,
                    obs=ObsConfig(
                        trace_dir=str(run_dir / "trace"),
                        histogram_reservoir=base_cfg.obs.histogram_reservoir,
                    ),
                )
            if not args.quiet:
                print(f"[chaos] {schedule.describe()}")
            runs += 1
            try:
                report = run_chaos_schedule(cfg, schedule, timeout=args.timeout)
                ok = report.recovered and report.bitwise_equal
                differences = report.differences
            except Exception as exc:  # noqa: BLE001 - a hang/crash IS a finding
                ok = False
                differences = [f"{type(exc).__name__}: {exc}"]
            if ok:
                if not args.quiet:
                    print(f"[chaos] seed {seed} ({backend}): bitwise OK")
                continue
            failures += 1
            print(f"[chaos] seed {seed} ({backend}): FAILED")
            for diff in differences:
                print(f"  - {diff}")
            print(
                f"  reproduce: repro.cli chaos --seeds 1 --seed-base {seed} "
                f"--backends {backend} --iterations {args.iterations} "
                f"--max-faults {args.max_faults}"
            )
            if run_dir is not None:
                (run_dir / "schedule.json").write_text(
                    _json.dumps(
                        {
                            "schedule": schedule.to_dict(),
                            "differences": differences,
                        },
                        indent=2,
                        sort_keys=True,
                    )
                    + "\n"
                )
    print(
        f"[chaos] {runs - failures}/{runs} schedules recovered bitwise"
        + (f"; {failures} FAILED" if failures else "")
    )
    return 1 if failures else 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handler = {
        "train": cmd_train,
        "agent": cmd_agent,
        "resume": cmd_resume,
        "plan": cmd_plan,
        "stats": cmd_stats,
        "throughput": cmd_throughput,
        "serve-bench": cmd_serve_bench,
        "trace": cmd_trace,
        "chaos": cmd_chaos,
    }[args.command]
    return handler(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
