"""``repro fleet`` — the deployment simulator's subcommands.

``run`` and ``retrain`` declare a run's flags once and share one handler;
``retrain`` takes no edge-tier flag, because the continual-training driver
runs the classic private-link fleet.  The checkpoint records every flag but
the per-invocation ones (:data:`PER_INVOCATION`), and ``resume`` rebuilds
the run over the parser's defaults, so a flag added later takes its default
and a stored key the parser no longer knows is ignored.

Imported by ``repro.__main__`` when it builds its parser, never by
``repro.fleet`` itself: beyond the standard library, each name is imported
inside the function that uses it.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import TYPE_CHECKING, Any, Dict, List, Sequence

if TYPE_CHECKING:
    from repro.experiment.schemes import SchemeSpec
    from repro.fleet.workload import FlashCrowd

#: Flags that steer one invocation, not the run: never recorded, and given
#: afresh to ``fleet resume``.
PER_INVOCATION = ("checkpoint", "resume", "workers", "stop_after", "out")
#: Namespace entries that pick the command rather than describe the run.
_DISPATCH = ("command", "fleet_command", "func")


def fleet_specs(names: Sequence[str]) -> List["SchemeSpec"]:
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


def _parse_flash_crowd(text: str) -> "FlashCrowd":
    """Parse ``START_DAY:DURATION_HOURS:MULTIPLIER`` (e.g. ``2:3:5``)."""
    from repro.fleet.workload import FlashCrowd

    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(
            "flash crowd must be START_DAY:DURATION_HOURS:MULTIPLIER"
        )
    return FlashCrowd(*map(float, parts))


def recorded_cli_args(args: argparse.Namespace) -> Dict[str, Any]:
    """The run's parameters as its checkpoint records them for ``fleet
    resume``: every flag but :data:`PER_INVOCATION`, under the keys the
    first checkpoints used (``flash_crowds``, ``registry_dir``, ``mode``)."""
    recorded = {
        key: value
        for key, value in vars(args).items()
        if key not in PER_INVOCATION + _DISPATCH
    }
    recorded["flash_crowds"] = [
        [c.start_day, c.duration_hours, c.multiplier]
        for c in recorded.pop("flash_crowd")
    ]
    if args.fleet_command == "retrain":
        recorded["mode"] = "retrain"
        recorded["registry_dir"] = recorded.pop("registry")
    return recorded


def _cmd_run(args: argparse.Namespace) -> int:
    """The one handler of ``fleet run`` and ``fleet retrain``: fresh, with
    ``--resume``, or rebuilt by ``fleet resume``."""
    from repro.core.ttp import TtpConfig
    from repro.edge.cells import EdgeConfig
    from repro.experiment.presets import smoke_trial_config
    from repro.fleet.retrain import RetrainConfig, run_fleet_retrain
    from repro.fleet.runner import FleetConfig, run_fleet
    from repro.fleet.workload import WorkloadConfig

    if args.resume and args.checkpoint is None:
        raise argparse.ArgumentTypeError("--resume requires --checkpoint")
    retrain = args.fleet_command == "retrain"
    try:  # a value its config rejects is a usage error (exit 2)
        edge = None
        if not retrain and args.cells is not None:
            edge = EdgeConfig(
                mean_cell_sessions=args.cells,
                cell_size_dist=args.cell_dist,
                cell_capacity_bps=args.cell_capacity_bps,
                cache_chunks=args.cache_chunks,
                zipf_alpha=args.zipf_alpha,
                seed=args.edge_seed,
            )
        config = FleetConfig(
            workload=WorkloadConfig(
                days=args.days,
                sessions_per_hour=args.rate,
                diurnal_amplitude=args.diurnal_amplitude,
                peak_hour=args.peak_hour,
                flash_crowds=tuple(args.flash_crowd),
                seed=args.seed,
            ),
            trial=smoke_trial_config(seed=args.trial_seed),
            chunk_sessions=args.chunk_size,
            edge=edge,
        )
        specs = fleet_specs(args.schemes)
        policy = RetrainConfig(
            ttp=TtpConfig(horizon=args.ttp_horizon),
            window_days=args.window_days,
            recency_decay=args.recency_decay,
            epochs_per_day=args.epochs_per_day,
            seed=args.retrain_seed,
            arm_prefix=args.arm_prefix,
        ) if retrain else None
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc
    common: Dict[str, Any] = dict(
        workers=args.workers,
        checkpoint_path=args.checkpoint,
        resume=args.resume,
        archive_dir=args.archive_dir,
        stop_after_sessions=args.stop_after,
        cli_args=recorded_cli_args(args),
    )
    if policy is None:
        result = run_fleet(specs, config, **common)
    else:
        result = run_fleet_retrain(
            specs, config, policy, registry_dir=args.registry, **common
        )
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
    if retrain:
        print(
            f"model registry: {args.registry} (inspect with: "
            f"repro fleet models {args.registry})",
            file=sys.stderr,
        )
    return 0


def _cmd_resume(args: argparse.Namespace) -> int:
    from repro.fleet.checkpoint import CheckpointManager
    from repro.fleet.workload import FlashCrowd

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
    argv = ["run"]
    if stored.get("mode") == "retrain":
        argv = [
            "retrain",
            "--archive-dir", str(stored["archive_dir"]),
            "--registry", str(stored["registry_dir"]),
        ]
    parser = argparse.ArgumentParser(prog="repro fleet")
    _add_fleet_commands(parser)
    run_args = parser.parse_args(argv)
    for key, value in stored.items():
        name = "registry" if key == "registry_dir" else key
        if hasattr(run_args, name):
            setattr(run_args, name, value)
    run_args.flash_crowd = [FlashCrowd(*c) for c in stored["flash_crowds"]]
    vars(run_args).update(
        checkpoint=args.checkpoint, resume=True, workers=args.workers,
        stop_after=args.stop_after, out=args.out,
    )
    return _cmd_run(run_args)


def _cmd_models(args: argparse.Namespace) -> int:
    from repro.fleet.retrain import ModelRegistry

    print(ModelRegistry(args.registry).format_table())
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.fleet.runner import format_sink_table
    from repro.fleet.sinks import FleetSink

    try:
        with open(args.file) as f:
            data = json.load(f)
    except (OSError, ValueError) as exc:
        print(f"repro: error: cannot read {args.file}: {exc}", file=sys.stderr)
        return 1
    if "sink" not in data:
        raise SystemExit(
            f"{args.file}: neither a fleet checkpoint nor a metrics dump "
            "(no 'sink' key)"
        )
    kind = "checkpoint" if "fingerprint" in data else "dump"
    state = "complete" if data.get("completed") else "in progress"
    print(
        f"{kind}: next_session_id={data.get('next_session_id')} [{state}]",
        file=sys.stderr,
    )
    print(format_sink_table(FleetSink.from_dict(data["sink"])))
    return 0


def _add_run_arguments(p: argparse.ArgumentParser) -> None:
    """The flags ``run`` and ``retrain`` share: the workload, the trial
    seed, the schemes and the per-invocation flags."""
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
        "--chunk-size", type=int, default=16,
        help="sessions per commit/checkpoint (does not affect results)",
    )
    p.add_argument(
        "--checkpoint", default=None, metavar="PATH",
        help="crash-safe checkpoint file (enables kill + resume)",
    )
    p.add_argument(
        "--resume", action="store_true",
        help="continue from --checkpoint if it exists",
    )
    _add_continuation_arguments(p)


def _add_continuation_arguments(p: argparse.ArgumentParser) -> None:
    """The per-invocation flags ``resume`` takes afresh."""
    p.add_argument(
        "--workers", type=int, default=1,
        help="worker processes (the dump is byte-identical at any count)",
    )
    p.add_argument(
        "--stop-after", type=int, default=None, metavar="N",
        help="pause once N sessions in all are committed (resume later)",
    )
    p.add_argument(
        "--out", default=None, metavar="PATH",
        help="write the canonical metrics dump JSON here",
    )


def _add_edge_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--cells", type=float, default=None, metavar="MEAN",
        help="enable the edge-contention tier: partition arrivals into "
        "shared-bottleneck cells with this mean size (sessions); "
        "omit for the classic private-link fleet",
    )
    p.add_argument(
        "--cell-dist", choices=["fixed", "geometric"], default="geometric",
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


def _add_retrain_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--archive-dir", required=True, metavar="DIR",
        help="telemetry archive directory (mandatory: it is the training "
        "set)",
    )
    p.add_argument(
        "--registry", required=True, metavar="DIR",
        help="versioned model-registry directory (one gen-NNNN.json per "
        "committed generation)",
    )
    p.add_argument(
        "--window-days", type=int, default=14,
        help="sliding training window in simulated days (§4.3)",
    )
    p.add_argument(
        "--recency-decay", type=float, default=0.9,
        help="per-day-of-age multiplier on sample weights",
    )
    p.add_argument(
        "--epochs-per-day", type=int, default=8,
        help="training epochs per daily retraining",
    )
    p.add_argument(
        "--retrain-seed", type=int, default=0,
        help="base training seed (day d trains with seed + d)",
    )
    p.add_argument(
        "--ttp-horizon", type=int, default=5,
        help="TTP lookahead horizon (networks per generation)",
    )
    p.add_argument(
        "--arm-prefix", default="fugu",
        help="generation g enrolls as arm PREFIX@gNNN",
    )


def _add_fleet_commands(fleet: argparse.ArgumentParser) -> None:
    sub = fleet.add_subparsers(dest="fleet_command", required=True)

    run = sub.add_parser("run", help="run a deployment simulation")
    _add_run_arguments(run)
    _add_edge_arguments(run)
    run.add_argument(
        "--archive-dir", default=None, metavar="DIR",
        help="stream the Appendix-B open-data CSV archive here",
    )
    run.set_defaults(func=_cmd_run)

    retrain = sub.add_parser(
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
            "count and across kill -9 + resume.  The private-link fleet "
            "only: it takes no edge-tier flag."
        ),
    )
    _add_run_arguments(retrain)
    _add_retrain_arguments(retrain)
    retrain.set_defaults(func=_cmd_run)

    models = sub.add_parser(
        "models", help="print the lineage table of a model registry"
    )
    models.add_argument("registry", metavar="DIR")
    models.set_defaults(func=_cmd_models)

    resume = sub.add_parser(
        "resume", help="continue a killed/paused run from its checkpoint"
    )
    resume.add_argument("--checkpoint", required=True, metavar="PATH")
    _add_continuation_arguments(resume)
    resume.set_defaults(func=_cmd_resume)

    report = sub.add_parser(
        "report", help="print the per-scheme table from a checkpoint or dump"
    )
    report.add_argument("file")
    report.set_defaults(func=_cmd_report)


def add_subcommand(
    commands: "argparse._SubParsersAction[argparse.ArgumentParser]",
) -> None:
    """Add ``fleet`` and its subcommands to ``repro``'s parser."""
    fleet = commands.add_parser(
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
    _add_fleet_commands(fleet)
