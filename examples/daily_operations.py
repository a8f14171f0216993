"""Days of Puffer operations: serve traffic, retrain the TTP nightly.

Reproduces the §4.3 operational loop at example scale on the continual
retraining service (`repro.fleet.run_fleet_retrain`): BBA and MPC-HM serve
from day 0; at every simulated day boundary the Transmission Time Predictor
retrains on the sliding telemetry window read back from the open-data
archive, warm-started from yesterday's weights, and the frozen generation
joins the randomized trial as a fresh Fugu arm from the next day on.

Run:  python examples/daily_operations.py     (~15 seconds)
"""

import tempfile
from pathlib import Path

from repro.abr import BBA, MpcHm
from repro.experiment.presets import smoke_trial_config
from repro.experiment.schemes import SchemeSpec
from repro.fleet import (
    FleetConfig,
    ModelRegistry,
    RetrainConfig,
    WorkloadConfig,
    run_fleet_retrain,
)

DAYS = 5


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
    print(f"Operating the deployment for {DAYS} days (nightly TTP retraining)…\n")
    config = FleetConfig(
        workload=WorkloadConfig(days=float(DAYS), sessions_per_hour=2.0, seed=7),
        trial=smoke_trial_config(seed=7),
    )
    with tempfile.TemporaryDirectory() as scratch:
        registry_dir = Path(scratch) / "registry"
        result = run_fleet_retrain(
            classical_specs(),
            config,
            RetrainConfig(epochs_per_day=6, seed=7),
            archive_dir=Path(scratch) / "archive",
            registry_dir=registry_dir,
        )
        registry = ModelRegistry(registry_dir)
        print(f"{'Gen':>4}{'Day':>5}  {'Arm':<12}{'Window streams':>15}"
              f"{'Train loss':>12}")
        losses = []
        for entry in registry.generations:
            payload = registry.load_payload(entry.generation)
            # Cross-entropy of the step-0 network on its training window.
            loss = payload["eval"][0]["cross_entropy"]
            losses.append(loss)
            print(
                f"{entry.generation:>4}{entry.day:>5}  {entry.arm:<12}"
                f"{payload['n_streams_window']:>15}{loss:>12.3f}"
            )

    print(
        f"\nTraining loss went {losses[0]:.3f} → {losses[-1]:.3f} as in-situ "
        "telemetry accumulated.\n"
    )
    # Every generation is its own arm: a day's Fugu sessions were served by
    # the model trained through the previous night.
    print(result.format_table())


if __name__ == "__main__":
    main()
