"""A simulated week of deployment with the fleet engine (`repro.fleet`).

Runs seven days of Poisson/diurnal session arrivals — evening peaks, a
flash crowd when something newsworthy airs on day 2 — through the
constant-memory fleet driver, checkpointing after every committed chunk.
Halfway through, the run is deliberately "killed" (paused exactly as a
SIGKILL would leave it) and resumed from the surviving checkpoint; the
final per-scheme table is byte-identical to an uninterrupted run.

Run:  python examples/fleet_week.py     (~2 minutes; scale with --rate)
"""

import argparse
import json
import tempfile
from pathlib import Path

from repro.abr.bba import BBA
from repro.abr.mpc import MpcHm
from repro.experiment.presets import smoke_trial_config
from repro.experiment.schemes import SchemeSpec
from repro.fleet import (
    FlashCrowd,
    FleetConfig,
    WorkloadConfig,
    WorkloadGenerator,
    run_fleet,
)


def classical_specs():
    return [
        SchemeSpec(
            name="bba", control="classical", predictor="n/a",
            optimization_goal="+SSIM s.t. bitrate < limit",
            how_trained="n/a", factory=BBA,
        ),
        SchemeSpec(
            name="mpc_hm", control="classical", predictor="classical (HM)",
            optimization_goal="+SSIM, -stalls, -dSSIM",
            how_trained="n/a", factory=MpcHm,
        ),
    ]


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rate", type=float, default=6.0,
                        help="mean sessions/hour (default keeps it quick)")
    parser.add_argument("--workers", type=int, default=2)
    args = parser.parse_args()

    workload = WorkloadConfig(
        days=7.0,
        sessions_per_hour=args.rate,
        diurnal_amplitude=0.6,
        peak_hour=20.0,
        flash_crowds=(
            FlashCrowd(start_day=2.0 + 19.0 / 24.0,  # day-2 prime time
                       duration_hours=3.0, multiplier=4.0),
        ),
        seed=4,
    )
    config = FleetConfig(
        workload=workload, trial=smoke_trial_config(seed=21),
        chunk_sessions=16,
    )
    total = WorkloadGenerator(workload).count()
    print(
        f"Simulating a 7-day deployment: {total} sessions "
        f"(expected {workload.expected_sessions():.0f}), evening peaks, "
        f"flash crowd on day 2.\n"
    )

    with tempfile.TemporaryDirectory() as scratch:
        ckpt = str(Path(scratch) / "fleet.ckpt")
        archive = str(Path(scratch) / "archive")

        # Phase 1: run until roughly half the week, then stop cold —
        # exactly the state a SIGKILL would leave behind.
        partial = run_fleet(
            classical_specs(), config, workers=args.workers,
            checkpoint_path=ckpt, archive_dir=archive,
            stop_after_sessions=total // 2,
        )
        print(
            f"killed mid-week at session {partial.next_session_id}/{total} "
            f"(checkpoint survives, archive truncates on resume)"
        )

        # Phase 2: resume from the checkpoint and finish the week.
        result = run_fleet(
            classical_specs(), config, workers=args.workers,
            checkpoint_path=ckpt, archive_dir=archive, resume=True,
        )
        assert result.completed
        if result.throughput is not None:
            print(result.throughput.format())
        print()
        print(result.format_table())

        # The punchline: the resumed dump is byte-identical to a clean run.
        clean = run_fleet(classical_specs(), config, workers=1)
        identical = json.dumps(
            result.to_dump_dict(), sort_keys=True
        ) == json.dumps(clean.to_dump_dict(), sort_keys=True)
        print(
            f"\nresumed dump byte-identical to an uninterrupted serial run: "
            f"{identical}"
        )

        hours = result.sink.arrivals_by_hour
        peak = max(range(24), key=lambda h: hours[h])
        print(
            f"arrivals peaked at {peak}:00 "
            f"({hours[peak]} sessions) vs {min(hours)} in the quietest hour; "
            f"day-2 flash crowd: "
            f"{result.sink.sessions_by_day.get(2, 0)} sessions "
            f"vs {result.sink.sessions_by_day.get(1, 0)} the day before."
        )


if __name__ == "__main__":
    main()
