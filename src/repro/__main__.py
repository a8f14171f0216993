"""Command-line interface: ``python -m repro <command>``.

This module builds the top-level parser, holds the paper's demo commands,
``obs``, ``sanitize-run`` and ``crash-matrix``, and maps errors to exit
codes; ``repro.fleet.cli`` and ``repro.lint.cli`` add their own commands.
README.md lists every command.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def _cmd_quickstart(args: argparse.Namespace) -> int:
    import numpy as np

    from repro.abr.bba import BBA
    from repro.abr.mpc import MpcHm
    from repro.media.encoder import VbrEncoder
    from repro.media.source import DEFAULT_CHANNELS, VideoSource
    from repro.net.link import HeavyTailLink
    from repro.net.tcp import TcpConnection
    from repro.streaming.simulator import simulate_stream

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
    from repro.analysis.summary import summarize_scheme
    from repro.experiment.harness import RandomizedTrial, TrialConfig
    from repro.experiment.insitu import (
        InSituTrainingConfig,
        train_fugu_in_situ,
        train_pensieve_in_simulation,
    )
    from repro.experiment.schemes import primary_experiment_schemes

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
    from repro.atomio import atomic_write_text
    from repro.experiment.insitu import (
        InSituTrainingConfig,
        train_fugu_in_situ,
    )

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
    from repro.analysis.power import detectability_curve

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
    from repro.fleet.cli import fleet_specs

    return fleet_specs(["bba", "mpc_hm"])


def _cmd_obs_collect(args: argparse.Namespace) -> int:
    from repro.experiment.harness import RandomizedTrial, TrialConfig
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
    from repro.experiment.harness import RandomizedTrial, TrialConfig

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


def _artifact_errors() -> tuple:
    """The typed errors naming a bad checkpoint, registry or archive."""
    from repro.data.archive import ArchiveError
    from repro.fleet import CheckpointError, RegistryError

    return (ArchiveError, CheckpointError, RegistryError)


def _error(message: str) -> int:
    print(f"repro: error: {message}", file=sys.stderr)
    return 1


def _check_output_paths(args: argparse.Namespace) -> None:
    """Refuse an output file whose directory is missing before any work:
    ``--out``, ``--metrics-out`` and ``--output`` are written at the end."""
    for flag in ("out", "metrics_out", "output"):
        path = getattr(args, flag, None)
        if path is not None and not Path(path).parent.is_dir():
            raise argparse.ArgumentTypeError(
                f"cannot write {path}: no directory {Path(path).parent}"
            )


def _cmd_obs_summary(args: argparse.Namespace) -> int:
    from repro.obs import format_summary

    try:
        with open(args.file) as f:
            dump = json.load(f)
    except (OSError, ValueError) as exc:
        return _error(f"cannot read {args.file}: {exc}")
    print(format_summary(dump, max_events=args.events))
    return 0


def build_parser() -> argparse.ArgumentParser:
    from repro.fleet.cli import add_subcommand as add_fleet
    from repro.lint.cli import add_subcommand as add_lint

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

    add_fleet(sub)
    add_lint(sub)

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
        _check_output_paths(args)
        return args.func(args)
    except argparse.ArgumentTypeError as exc:  # a flag its config rejects
        parser.error(str(exc))
    except _artifact_errors() as exc:  # evaluated only once one is raised
        return _error(str(exc))


if __name__ == "__main__":
    raise SystemExit(main())
