"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``quickstart``
    Stream a few minutes of simulated live TV with two schemes.
``trial``
    Run a miniature blinded randomized trial and print the Fig. 1 table.
``train-fugu``
    Train Fugu's TTP in situ and save it to a JSON file.
``detectability``
    Print the §3.4 statistical-power analysis.
``obs collect``
    Run an instrumented mini-trial and dump the merged metrics JSON.
``obs summary``
    Pretty-print a metrics dump (counters, histogram quantiles, events).
``lint``
    Run the AST-based determinism & correctness linter (``repro.lint``);
    ``--whole-program`` adds the interprocedural rules declared in
    ``contract.json``.
``sanitize-run``
    Run the canonical mini-trial with the runtime determinism sanitizer
    armed (``repro.sanitizer``) and print the telemetry digest.
``fleet run``
    Simulate an open-ended deployment (Poisson/diurnal arrivals) at
    constant memory, with crash-safe checkpoints.
``fleet resume``
    Continue a killed or paused fleet run from its checkpoint.
``fleet report``
    Print the per-scheme table from a checkpoint or metrics dump.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.atomio import atomic_write_text


def _cmd_quickstart(args: argparse.Namespace) -> int:
    import numpy as np

    from repro.abr import BBA, MpcHm
    from repro.media import VbrEncoder, VideoSource
    from repro.media.source import DEFAULT_CHANNELS
    from repro.net import HeavyTailLink, TcpConnection
    from repro.streaming import simulate_stream

    print(f"{'Scheme':<10}{'SSIM dB':>9}{'Stall %':>9}{'Chunks':>8}")
    for abr in (BBA(), MpcHm()):
        rng = np.random.default_rng(args.seed)
        source = VideoSource(DEFAULT_CHANNELS[2], rng=rng)
        encoder = VbrEncoder(rng=rng)
        conn = TcpConnection(
            HeavyTailLink(base_bps=args.mbps * 1e6, seed=args.seed),
            base_rtt=0.06,
        )
        result = simulate_stream(
            encoder.stream(source), abr, conn,
            watch_time_s=args.minutes * 60.0,
        )
        print(
            f"{abr.name:<10}{result.mean_ssim_db:>9.2f}"
            f"{result.stall_ratio * 100:>9.2f}{len(result.records):>8}"
        )
    return 0


def _cmd_trial(args: argparse.Namespace) -> int:
    from repro.analysis import summarize_scheme
    from repro.experiment import (
        InSituTrainingConfig,
        RandomizedTrial,
        TrialConfig,
        primary_experiment_schemes,
        train_fugu_in_situ,
        train_pensieve_in_simulation,
    )

    print("training learned schemes…", file=sys.stderr)
    fugu_predictor = train_fugu_in_situ(
        InSituTrainingConfig(
            bootstrap_streams=60, iteration_streams=60, iterations=1,
            epochs=8, seed=args.seed, workers=args.workers,
        )
    )
    pensieve = train_pensieve_in_simulation(
        episodes=300, seed=args.seed, n_candidates=2
    )
    specs = primary_experiment_schemes(fugu_predictor, pensieve)
    print(
        f"randomizing {args.sessions} sessions"
        f" across {args.workers} worker(s)…",
        file=sys.stderr,
    )
    trial = RandomizedTrial(
        specs,
        TrialConfig(
            n_sessions=args.sessions,
            seed=args.seed,
            observability=args.metrics_out is not None,
        ),
    ).run(workers=args.workers)
    if trial.throughput is not None:
        print(trial.throughput.format(), file=sys.stderr)
    if args.metrics_out is not None:
        trial.dump_metrics(args.metrics_out)
        print(f"wrote metrics dump to {trial.metrics_path}", file=sys.stderr)
    print(f"{'Scheme':<15}{'Stall %':>9}{'SSIM dB':>9}{'N':>6}")
    for name in trial.scheme_names:
        streams = trial.streams_for(name)
        if not streams:
            continue
        s = summarize_scheme(name, streams, n_resamples=200)
        print(
            f"{name:<15}{s.stall_percent:>9.3f}"
            f"{s.mean_ssim_db.point:>9.2f}{s.n_streams:>6}"
        )
    return 0


def _cmd_train_fugu(args: argparse.Namespace) -> int:
    from repro.experiment import InSituTrainingConfig, train_fugu_in_situ

    predictor = train_fugu_in_situ(
        InSituTrainingConfig(
            bootstrap_streams=args.streams,
            iteration_streams=args.streams,
            iterations=args.iterations,
            epochs=args.epochs,
            seed=args.seed,
            workers=args.workers,
        )
    )
    atomic_write_text(args.output, json.dumps(predictor.state_dict()))
    print(f"saved trained TTP to {args.output}")
    return 0


def _cmd_detectability(args: argparse.Namespace) -> int:
    from repro.analysis import detectability_curve

    points = detectability_curve(
        improvement=args.improvement,
        stream_counts=tuple(args.streams),
        n_trials=args.trials,
        seed=args.seed,
    )
    print(
        f"{'streams':>10}{'stream-years':>14}{'CI ±%':>8}{'P(detect)':>11}"
    )
    for p in points:
        print(
            f"{p.n_streams_per_scheme:>10}"
            f"{p.stream_years_per_scheme:>14.2f}"
            f"{p.ci_half_width_fraction * 100:>8.1f}"
            f"{p.detection_rate:>11.2f}"
        )
    return 0


def _obs_collect_specs():
    """Cheap classical schemes for the ``obs collect`` mini-trial."""
    return _fleet_specs(["bba", "mpc_hm"])


def _cmd_obs_collect(args: argparse.Namespace) -> int:
    from repro.experiment import RandomizedTrial, TrialConfig
    from repro.obs import format_summary

    trial = RandomizedTrial(
        _obs_collect_specs(),
        TrialConfig(
            n_sessions=args.sessions, seed=args.seed, observability=True
        ),
    ).run(workers=args.workers)
    trial.dump_metrics(args.out, include_wallclock=not args.deterministic)
    if trial.throughput is not None:
        print(trial.throughput.format(), file=sys.stderr)
    print(format_summary(trial.obs.to_dict()))
    print(f"wrote metrics dump to {trial.metrics_path}", file=sys.stderr)
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.lint.cli import run_lint

    return run_lint(args)


def _cmd_crash_matrix(args: argparse.Namespace) -> int:
    """Enumerate every crash point of a mini fleet run and prove recovery.

    Dynamic counterpart of the DUR rules of ``repro lint --whole-program``:
    the static DUR rules claim every durable write is crash-safe; this
    harness kills a real run at each registered crash point, resumes
    from the survivor state, and byte-compares the durable outputs
    against an uninterrupted reference run.
    """
    import tempfile

    from repro.crashpoints import (
        CrashMatrixError,
        format_report,
        run_crash_matrix,
    )

    modes = ["retrain", "edge", "run"] if args.mode == "all" else [args.mode]
    points = None
    if args.points:
        points = [int(part) for part in args.points.split(",") if part.strip()]
    failed = False
    for mode in modes:
        if args.workdir is not None:
            workdir = Path(args.workdir) / mode
        else:
            workdir = Path(tempfile.mkdtemp(prefix=f"crash-matrix-{mode}-"))
        try:
            report = run_crash_matrix(
                workdir,
                mode=mode,
                days=args.days,
                rate=args.rate,
                chunk_size=args.chunk_size,
                points=points,
                progress=lambda message: print(message, file=sys.stderr),
            )
        except CrashMatrixError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(format_report(report))
        failed = failed or not report.ok
    return 1 if failed else 0


def _cmd_sanitize_run(args: argparse.Namespace) -> int:
    """Run a mini-trial with every runtime determinism tripwire armed.

    The dynamic counterpart of ``repro lint --whole-program``: wall-clock
    reads, hidden-global-RNG draws, environment writes and module-state
    mutation inside the session path raise instead of passing silently.
    Exit 0 prints the telemetry digest (comparable across worker counts
    and against an unsanitized run); a violation exits 1.
    """
    import hashlib
    import os

    from repro import sanitizer
    from repro.experiment import RandomizedTrial, TrialConfig

    # Arm this process; forked pool workers inherit the armed state.
    os.environ[sanitizer.ENV_FLAG] = "1"
    sanitizer.install(sanitizer.SNAPSHOT_MODULES)
    print(
        f"sanitizer armed (hash canary {sanitizer.hash_canary()})",
        file=sys.stderr,
    )
    try:
        trial = RandomizedTrial(
            _obs_collect_specs(),
            TrialConfig(
                n_sessions=args.sessions,
                seed=args.seed,
                collect_telemetry=True,
            ),
        ).run(workers=args.workers)
    except sanitizer.SanitizerViolation as exc:
        print(f"sanitizer violation: {exc}", file=sys.stderr)
        return 1
    telemetry = trial.telemetry
    assert telemetry is not None
    digest = hashlib.sha256()
    rows = 0
    for table in ("video_sent", "video_acked", "client_buffer"):
        for record in getattr(telemetry, table):
            digest.update(
                json.dumps(record.to_dict(), sort_keys=True).encode()
            )
            digest.update(b"\n")
            rows += 1
    print(
        f"{args.sessions} session(s) sanitized clean: "
        f"{rows} telemetry rows, digest {digest.hexdigest()[:16]}"
    )
    return 0


# ---------------------------------------------------------------------------
# fleet: open-ended deployment simulation (repro.fleet)
# ---------------------------------------------------------------------------
def _fleet_specs(names):
    """The named classical (untrained) schemes for fleet runs.

    Fleet runs measure the *deployment machinery* — arrivals, streaming
    aggregation, checkpoint/resume — so they use cheap classical schemes
    rather than paying to train learned models first.
    """
    from repro.experiment.schemes import CLASSICAL_SCHEMES

    unknown = [name for name in names if name not in CLASSICAL_SCHEMES]
    if unknown:
        raise SystemExit(
            f"unknown scheme {unknown[0]!r}; choose from "
            f"{', '.join(sorted(CLASSICAL_SCHEMES))}"
        )
    return [CLASSICAL_SCHEMES[name] for name in names]


def _parse_flash_crowd(text: str):
    """Parse ``START_DAY:DURATION_HOURS:MULTIPLIER`` (e.g. ``2:3:5``)."""
    from repro.fleet import FlashCrowd

    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(
            "flash crowd must be START_DAY:DURATION_HOURS:MULTIPLIER"
        )
    return FlashCrowd(
        start_day=float(parts[0]),
        duration_hours=float(parts[1]),
        multiplier=float(parts[2]),
    )


def _fleet_cli_args(args: argparse.Namespace) -> dict:
    """The run parameters recorded in the checkpoint for ``fleet resume``."""
    return {
        "days": args.days,
        "rate": args.rate,
        "diurnal_amplitude": args.diurnal_amplitude,
        "peak_hour": args.peak_hour,
        "flash_crowds": [
            [c.start_day, c.duration_hours, c.multiplier]
            for c in args.flash_crowd
        ],
        "seed": args.seed,
        "trial_seed": args.trial_seed,
        "schemes": list(args.schemes),
        "chunk_size": args.chunk_size,
        "archive_dir": args.archive_dir,
        "cells": args.cells,
        "cell_dist": args.cell_dist,
        "cell_capacity_bps": args.cell_capacity_bps,
        "cache_chunks": args.cache_chunks,
        "zipf_alpha": args.zipf_alpha,
        "edge_seed": args.edge_seed,
    }


class _UsageError(Exception):
    """A flag value its config rejected: ``main`` reports it the way
    argparse reports a malformed flag (exit 2)."""


def _artifact_errors() -> tuple:
    """The typed errors naming a bad checkpoint, registry or archive."""
    from repro.data import ArchiveError
    from repro.fleet import CheckpointError, RegistryError

    return (ArchiveError, CheckpointError, RegistryError)


def _error(message: str) -> int:
    print(f"repro: error: {message}", file=sys.stderr)
    return 1


def _fleet_config_from_args(args: argparse.Namespace):
    from repro.edge import EdgeConfig
    from repro.experiment.presets import smoke_trial_config
    from repro.fleet import FleetConfig, WorkloadConfig

    try:
        workload = WorkloadConfig(
            days=args.days,
            sessions_per_hour=args.rate,
            diurnal_amplitude=args.diurnal_amplitude,
            peak_hour=args.peak_hour,
            flash_crowds=tuple(args.flash_crowd),
            seed=args.seed,
        )
        trial = smoke_trial_config(seed=args.trial_seed)
        edge = None
        if args.cells is not None:
            edge = EdgeConfig(
                mean_cell_sessions=args.cells,
                cell_size_dist=args.cell_dist,
                cell_capacity_bps=args.cell_capacity_bps,
                cache_chunks=args.cache_chunks,
                zipf_alpha=args.zipf_alpha,
                seed=args.edge_seed,
            )
        config = FleetConfig(
            workload=workload,
            trial=trial,
            chunk_sessions=args.chunk_size,
            edge=edge,
        )
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc
    return _fleet_specs(args.schemes), config


def _print_fleet_result(result, args: argparse.Namespace) -> int:
    if result.throughput is not None:
        print(result.throughput.format(), file=sys.stderr)
    if result.edge_stats is not None:
        stats = result.edge_stats
        served = stats["cache_hits"] + stats["cache_misses"]
        ratio = stats["cache_hits"] / served if served else 0.0
        print(
            f"edge tier: {stats['cells']} cells "
            f"({stats['shared_cells']} shared), cache hit ratio "
            f"{ratio:.3f} ({stats['cache_hits']}/{served})",
            file=sys.stderr,
        )
    print(result.format_table())
    if not result.completed:
        print(
            f"paused at session {result.next_session_id}; continue with: "
            f"repro fleet resume --checkpoint {args.checkpoint}",
            file=sys.stderr,
        )
    if args.out is not None:
        result.dump(args.out)
        print(f"wrote metrics dump to {args.out}", file=sys.stderr)
    return 0


def _run_fleet_from_args(args: argparse.Namespace, resume: bool) -> int:
    from repro.fleet import run_fleet

    specs, config = _fleet_config_from_args(args)
    result = run_fleet(
        specs,
        config,
        workers=args.workers,
        checkpoint_path=args.checkpoint,
        resume=resume,
        archive_dir=args.archive_dir,
        stop_after_sessions=args.stop_after,
        cli_args=_fleet_cli_args(args),
    )
    return _print_fleet_result(result, args)


def _retrain_config_from_args(args: argparse.Namespace):
    from repro.core.ttp import TtpConfig
    from repro.fleet import RetrainConfig

    try:
        return RetrainConfig(
            ttp=TtpConfig(horizon=args.ttp_horizon),
            window_days=args.window_days,
            recency_decay=args.recency_decay,
            epochs_per_day=args.epochs_per_day,
            seed=args.retrain_seed,
            arm_prefix=args.arm_prefix,
        )
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc


def _fleet_retrain_cli_args(args: argparse.Namespace) -> dict:
    """Retrain-run parameters recorded for ``repro fleet resume``."""
    recorded = _fleet_cli_args(args)
    recorded.update(
        {
            "mode": "retrain",
            "registry_dir": args.registry,
            "window_days": args.window_days,
            "recency_decay": args.recency_decay,
            "epochs_per_day": args.epochs_per_day,
            "retrain_seed": args.retrain_seed,
            "ttp_horizon": args.ttp_horizon,
            "arm_prefix": args.arm_prefix,
        }
    )
    return recorded


def _run_fleet_retrain_from_args(args: argparse.Namespace, resume: bool) -> int:
    from repro.fleet import run_fleet_retrain

    specs, config = _fleet_config_from_args(args)
    result = run_fleet_retrain(
        specs,
        config,
        _retrain_config_from_args(args),
        archive_dir=args.archive_dir,
        registry_dir=args.registry,
        workers=args.workers,
        checkpoint_path=args.checkpoint,
        resume=resume,
        stop_after_sessions=args.stop_after,
        cli_args=_fleet_retrain_cli_args(args),
    )
    status = _print_fleet_result(result, args)
    print(
        f"model registry: {args.registry} (inspect with: "
        f"repro fleet models {args.registry})",
        file=sys.stderr,
    )
    return status


def _cmd_fleet_run(args: argparse.Namespace) -> int:
    if args.resume and args.checkpoint is None:
        raise SystemExit("--resume requires --checkpoint")
    return _run_fleet_from_args(args, resume=args.resume)


def _cmd_fleet_retrain(args: argparse.Namespace) -> int:
    if args.resume and args.checkpoint is None:
        raise SystemExit("--resume requires --checkpoint")
    if args.cells is not None:
        raise SystemExit(
            "--cells is not supported with retrain (the continual-training "
            "driver runs the classic private-link fleet)"
        )
    return _run_fleet_retrain_from_args(args, resume=args.resume)


def _cmd_fleet_models(args: argparse.Namespace) -> int:
    from repro.fleet import ModelRegistry

    registry = ModelRegistry(args.registry)
    print(registry.format_table())
    return 0


def _cmd_fleet_resume(args: argparse.Namespace) -> int:
    from repro.fleet import CheckpointManager, FlashCrowd

    manager = CheckpointManager(args.checkpoint)
    if not manager.exists():
        raise SystemExit(f"no checkpoint at {args.checkpoint}")
    checkpoint = manager.load()
    if checkpoint.completed and args.out is None:
        print("checkpointed run is already complete", file=sys.stderr)
    stored = checkpoint.cli_args
    if stored is None:
        raise SystemExit(
            "checkpoint was written by an API run (no recorded CLI "
            "parameters); resume it with `repro fleet run --resume` and the "
            "original flags, or via repro.fleet.run_fleet(resume=True)"
        )
    # The parser supplies every default (flags a checkpoint predates
    # included); the stored values of the flags it knows override them,
    # and keys it no longer knows are ignored.
    retrain = stored.get("mode") == "retrain"
    argv = ["fleet", "retrain" if retrain else "run"]
    if retrain:
        argv += [
            "--archive-dir", str(stored["archive_dir"]),
            "--registry", str(stored["registry_dir"]),
        ]
    run_args = build_parser().parse_args(argv)
    for key, value in stored.items():
        name = "registry" if key == "registry_dir" else key
        if hasattr(run_args, name):
            setattr(run_args, name, value)
    run_args.flash_crowd = [FlashCrowd(*c) for c in stored["flash_crowds"]]
    run_args.checkpoint = args.checkpoint
    run_args.workers = args.workers
    run_args.stop_after = args.stop_after
    run_args.out = args.out
    if retrain:
        return _run_fleet_retrain_from_args(run_args, resume=True)
    return _run_fleet_from_args(run_args, resume=True)


def _cmd_fleet_report(args: argparse.Namespace) -> int:
    from repro.fleet import FleetSink, format_sink_table

    try:
        with open(args.file) as f:
            data = json.load(f)
    except (OSError, ValueError) as exc:
        return _error(f"cannot read {args.file}: {exc}")
    if "sink" not in data:
        raise SystemExit(
            f"{args.file}: neither a fleet checkpoint nor a metrics dump "
            "(no 'sink' key)"
        )
    sink = FleetSink.from_dict(data["sink"])
    kind = "checkpoint" if "fingerprint" in data else "dump"
    state = "complete" if data.get("completed") else "in progress"
    print(
        f"{kind}: next_session_id={data.get('next_session_id')} [{state}]",
        file=sys.stderr,
    )
    print(format_sink_table(sink))
    return 0


def _cmd_obs_summary(args: argparse.Namespace) -> int:
    from repro.obs import format_summary

    with open(args.file) as f:
        dump = json.load(f)
    print(format_summary(dump, max_events=args.events))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Learning in situ' (Puffer/Fugu, NSDI 2020)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    quick = sub.add_parser("quickstart", help="stream with two schemes")
    quick.add_argument("--minutes", type=float, default=5.0)
    quick.add_argument("--mbps", type=float, default=6.0)
    quick.add_argument("--seed", type=int, default=1)
    quick.set_defaults(func=_cmd_quickstart)

    trial = sub.add_parser("trial", help="run a miniature randomized trial")
    trial.add_argument("--sessions", type=int, default=200)
    trial.add_argument("--seed", type=int, default=0)
    trial.add_argument(
        "--workers", type=int, default=1,
        help="worker processes for the session loop (results are "
        "bit-identical at any worker count)",
    )
    trial.add_argument(
        "--metrics-out", default=None, metavar="PATH",
        help="collect observability metrics and dump the merged JSON here",
    )
    trial.set_defaults(func=_cmd_trial)

    train = sub.add_parser("train-fugu", help="train the TTP in situ")
    train.add_argument("--streams", type=int, default=60)
    train.add_argument("--iterations", type=int, default=1)
    train.add_argument("--epochs", type=int, default=10)
    train.add_argument("--seed", type=int, default=0)
    train.add_argument(
        "--workers", type=int, default=1,
        help="worker processes for telemetry collection",
    )
    train.add_argument("--output", default="fugu_ttp.json")
    train.set_defaults(func=_cmd_train_fugu)

    power = sub.add_parser(
        "detectability", help="statistical power analysis (§3.4)"
    )
    power.add_argument("--improvement", type=float, default=0.15)
    power.add_argument(
        "--streams", type=int, nargs="+", default=[1000, 8000, 64000]
    )
    power.add_argument("--trials", type=int, default=20)
    power.add_argument("--seed", type=int, default=0)
    power.set_defaults(func=_cmd_detectability)

    obs_parser = sub.add_parser(
        "obs", help="observability: collect and inspect metrics dumps"
    )
    obs_sub = obs_parser.add_subparsers(dest="obs_command", required=True)
    collect = obs_sub.add_parser(
        "collect", help="run an instrumented mini-trial and dump metrics"
    )
    collect.add_argument("--sessions", type=int, default=32)
    collect.add_argument("--seed", type=int, default=0)
    collect.add_argument("--workers", type=int, default=1)
    collect.add_argument("--out", default="metrics.json")
    collect.add_argument(
        "--deterministic", action="store_true",
        help="exclude wall-clock (profile.*) metrics from the dump — the "
        "surface that is bit-identical at any worker count",
    )
    collect.set_defaults(func=_cmd_obs_collect)
    summary = obs_sub.add_parser(
        "summary", help="pretty-print a metrics dump"
    )
    summary.add_argument("file")
    summary.add_argument(
        "--events", type=int, default=5,
        help="number of trailing trace events to show",
    )
    summary.set_defaults(func=_cmd_obs_summary)

    fleet = sub.add_parser(
        "fleet",
        help="open-ended deployment simulation at constant memory",
        description=(
            "Simulate a continuously-operating deployment: seeded "
            "Poisson/diurnal session arrivals, streaming exact-merge "
            "aggregation (O(1) memory in run length), and crash-safe "
            "checkpoints — the metrics dump is byte-identical at any "
            "worker count and across kill/resume."
        ),
    )
    fleet_sub = fleet.add_subparsers(dest="fleet_command", required=True)

    def add_fleet_run_arguments(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--days", type=float, default=1.0,
            help="simulated calendar days of arrivals",
        )
        p.add_argument(
            "--rate", type=float, default=60.0,
            help="mean session arrivals per hour",
        )
        p.add_argument(
            "--diurnal-amplitude", type=float, default=0.6,
            help="relative depth of the day/night cycle in [0, 1]",
        )
        p.add_argument(
            "--peak-hour", type=float, default=20.0,
            help="hour of day (0-24) at which arrivals peak",
        )
        p.add_argument(
            "--flash-crowd", type=_parse_flash_crowd, action="append",
            default=[], metavar="DAY:HOURS:MULT",
            help="add a flash crowd (start day : duration hours : rate "
            "multiplier); repeatable",
        )
        p.add_argument(
            "--seed", type=int, default=0, help="workload (arrival) seed"
        )
        p.add_argument(
            "--trial-seed", type=int, default=0,
            help="per-session simulation seed",
        )
        p.add_argument(
            "--schemes", nargs="+", default=["bba", "mpc_hm"],
            help="classical schemes to randomize between (the names of "
            "repro.experiment.schemes.CLASSICAL_SCHEMES)",
        )
        p.add_argument(
            "--workers", type=int, default=1,
            help="worker processes (the dump is byte-identical at any "
            "count)",
        )
        p.add_argument(
            "--chunk-size", type=int, default=16,
            help="sessions per commit/checkpoint (does not affect results)",
        )
        p.add_argument(
            "--cells", type=float, default=None, metavar="MEAN",
            help="enable the edge-contention tier: partition arrivals into "
            "shared-bottleneck cells with this mean size (sessions); "
            "omit for the classic private-link fleet",
        )
        p.add_argument(
            "--cell-dist", choices=["fixed", "geometric"],
            default="geometric",
            help="cell-size distribution around --cells (fixed rounds the "
            "mean; geometric is seeded per cell)",
        )
        p.add_argument(
            "--cell-capacity-bps", type=float, default=60e6,
            help="median shared bottleneck capacity per cell (bits/s)",
        )
        p.add_argument(
            "--cache-chunks", type=int, default=256,
            help="edge cache capacity per cell in chunks (0 disables)",
        )
        p.add_argument(
            "--zipf-alpha", type=float, default=1.1,
            help="Zipf exponent of within-cell channel popularity",
        )
        p.add_argument(
            "--edge-seed", type=int, default=0,
            help="seed of the edge tier (cell sizes, capacities, "
            "popularity permutations)",
        )
        p.add_argument(
            "--checkpoint", default=None, metavar="PATH",
            help="crash-safe checkpoint file (enables kill + resume)",
        )
        p.add_argument(
            "--resume", action="store_true",
            help="continue from --checkpoint if it exists",
        )
        p.add_argument(
            "--stop-after", type=int, default=None, metavar="N",
            help="pause once N sessions are committed (resume later)",
        )
        p.add_argument(
            "--out", default=None, metavar="PATH",
            help="write the canonical metrics dump JSON here",
        )

    fleet_run = fleet_sub.add_parser(
        "run", help="run a deployment simulation"
    )
    add_fleet_run_arguments(fleet_run)
    fleet_run.add_argument(
        "--archive-dir", default=None, metavar="DIR",
        help="stream the Appendix-B open-data CSV archive here",
    )
    fleet_run.set_defaults(func=_cmd_fleet_run)

    fleet_retrain = fleet_sub.add_parser(
        "retrain",
        help="deployment simulation with continual in-situ TTP retraining",
        description=(
            "Run the paper's learning-in-situ loop as a service: the fleet "
            "streams telemetry to the open-data archive, the TTP is "
            "retrained at every simulated day boundary on the archived "
            "window (recency-weighted, warm-started), each generation is "
            "committed to a versioned model registry with hash-chained "
            "lineage, and every generation enrolls as a fresh RCT arm. "
            "Registry, archive, and dump are byte-identical at any worker "
            "count and across kill -9 + resume."
        ),
    )
    add_fleet_run_arguments(fleet_retrain)
    fleet_retrain.add_argument(
        "--archive-dir", required=True, metavar="DIR",
        help="telemetry archive directory (mandatory: it is the training "
        "set)",
    )
    fleet_retrain.add_argument(
        "--registry", required=True, metavar="DIR",
        help="versioned model-registry directory (one gen-NNNN.json per "
        "committed generation)",
    )
    fleet_retrain.add_argument(
        "--window-days", type=int, default=14,
        help="sliding training window in simulated days (§4.3)",
    )
    fleet_retrain.add_argument(
        "--recency-decay", type=float, default=0.9,
        help="per-day-of-age multiplier on sample weights",
    )
    fleet_retrain.add_argument(
        "--epochs-per-day", type=int, default=8,
        help="training epochs per daily retraining",
    )
    fleet_retrain.add_argument(
        "--retrain-seed", type=int, default=0,
        help="base training seed (day d trains with seed + d)",
    )
    fleet_retrain.add_argument(
        "--ttp-horizon", type=int, default=5,
        help="TTP lookahead horizon (networks per generation)",
    )
    fleet_retrain.add_argument(
        "--arm-prefix", default="fugu",
        help="generation g enrolls as arm PREFIX@gNNN",
    )
    fleet_retrain.set_defaults(func=_cmd_fleet_retrain)

    fleet_models = fleet_sub.add_parser(
        "models",
        help="print the lineage table of a model registry",
    )
    fleet_models.add_argument("registry", metavar="DIR")
    fleet_models.set_defaults(func=_cmd_fleet_models)

    fleet_resume = fleet_sub.add_parser(
        "resume",
        help="continue a killed/paused run from its checkpoint",
    )
    fleet_resume.add_argument("--checkpoint", required=True, metavar="PATH")
    fleet_resume.add_argument(
        "--workers", type=int, default=1,
        help="worker processes for the continuation (any count reproduces "
        "the same dump)",
    )
    fleet_resume.add_argument(
        "--stop-after", type=int, default=None, metavar="N",
        help="pause again once N total sessions are committed",
    )
    fleet_resume.add_argument(
        "--out", default=None, metavar="PATH",
        help="write the canonical metrics dump JSON here",
    )
    fleet_resume.set_defaults(func=_cmd_fleet_resume)

    fleet_report = fleet_sub.add_parser(
        "report",
        help="print the per-scheme table from a checkpoint or dump",
    )
    fleet_report.add_argument("file")
    fleet_report.set_defaults(func=_cmd_fleet_report)

    lint = sub.add_parser(
        "lint",
        help="AST-based determinism & correctness linter",
        description=(
            "Statically enforce the determinism contract: seeded RNG only "
            "(DET001), no wall-clock in simulation paths (DET002), no "
            "hash-order iteration (DET003), no float equality in simulator "
            "branches (SIM001), guarded metric emission (OBS001), no "
            "mutable default arguments (API001).  With --whole-program, "
            "also run the interprocedural rules (purity, seed lineage, "
            "checkpoint coverage, durability) declared in contract.json."
        ),
    )
    from repro.lint.cli import add_lint_arguments

    add_lint_arguments(lint)
    lint.set_defaults(func=_cmd_lint)

    sanitize = sub.add_parser(
        "sanitize-run",
        help="run a mini-trial with runtime determinism tripwires armed",
        description=(
            "Dynamic counterpart of `repro lint --whole-program`: runs the "
            "classical-scheme mini-trial under REPRO_SANITIZE=1, where "
            "wall-clock reads, hidden-global-RNG draws, environment writes "
            "and module-state mutation on the session path raise instead "
            "of passing silently."
        ),
    )
    sanitize.add_argument("--sessions", type=int, default=8)
    sanitize.add_argument("--seed", type=int, default=0)
    sanitize.add_argument(
        "--workers", type=int, default=1,
        help="worker processes (the digest is identical at any count)",
    )
    sanitize.set_defaults(func=_cmd_sanitize_run)

    matrix = sub.add_parser(
        "crash-matrix",
        help="kill a mini fleet run at every crash point and prove recovery",
        description=(
            "Dynamic counterpart of the DUR rules of `repro lint "
            "--whole-program`: runs a reference mini fleet, enumerates every "
            "registered crash point, then for each point kills a fresh run "
            "exactly there, resumes from the survivor state, and "
            "byte-compares dump/registry/archive against the reference."
        ),
    )
    matrix.add_argument(
        "--mode",
        choices=["retrain", "edge", "run", "all"],
        default="retrain",
        help="fleet scenario to enumerate (default: retrain)",
    )
    matrix.add_argument(
        "--days", type=float, default=1.15,
        help="simulated fleet days per run (default: 1.15)",
    )
    matrix.add_argument(
        "--rate", type=float, default=3.0,
        help="session arrival rate per day (default: 3.0)",
    )
    matrix.add_argument(
        "--chunk-size", type=int, default=16,
        help="sessions per checkpointed chunk (default: 16)",
    )
    matrix.add_argument(
        "--points", default=None, metavar="N,N,...",
        help="comma-separated crash-point indices (default: all)",
    )
    matrix.add_argument(
        "--workdir", default=None, metavar="DIR",
        help="keep run artifacts under DIR/<mode> (default: temp dir)",
    )
    matrix.set_defaults(func=_cmd_crash_matrix)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _UsageError as exc:
        parser.error(str(exc))
    except _artifact_errors() as exc:  # evaluated only once one is raised
        return _error(str(exc))


if __name__ == "__main__":
    raise SystemExit(main())
