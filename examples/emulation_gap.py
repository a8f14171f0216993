"""The sim-to-real gap (Fig. 11): train Fugu in emulation, watch it fail in
deployment.

Builds the paper's mahimahi-style emulation environment (FCC-like traces,
40 ms delay shells, a 10-minute NBC clip), trains a Fugu variant on
telemetry collected *inside the emulator*, then evaluates both Fugu
variants in both environments.

Run:  python examples/emulation_gap.py     (~2–3 minutes)
"""

import time

import numpy as np

from repro.core.fugu import Fugu
from repro.emulation.env import EmulationEnvironment, train_fugu_in_emulation
from repro.experiment.insitu import (
    InSituTrainingConfig,
    deploy_and_collect,
    train_fugu_in_situ,
)


def summarize(streams):
    stall = sum(s.stall_time for s in streams) / sum(
        s.watch_time for s in streams
    )
    ssim = float(np.mean([s.mean_ssim_db for s in streams]))
    return f"stall={stall * 100:5.2f}%  ssim={ssim:5.2f} dB"


def main():
    t0 = time.time()
    print("Building the emulation environment (FCC traces + 40 ms shells)…")
    env = EmulationEnvironment(n_traces=12, seed=9)

    print("Training emulation-Fugu (supervised, on emulator telemetry)…")
    emu_predictor = train_fugu_in_emulation(env, epochs=8, seed=5)

    print("Training in-situ Fugu (supervised, on deployment telemetry)…")
    insitu_predictor = train_fugu_in_situ(
        InSituTrainingConfig(
            bootstrap_streams=60, iteration_streams=60, iterations=1,
            epochs=10, seed=3,
        )
    )
    print(f"  trained both in {time.time() - t0:.0f}s\n")

    emu_fugu = Fugu(emu_predictor, name="fugu_emulation")
    insitu_fugu = Fugu(insitu_predictor)

    print("In EMULATION (the environment emulation-Fugu was trained in):")
    for abr in (emu_fugu, insitu_fugu):
        print(f"  {abr.name:<16} {summarize(env.run_scheme(abr, seed=1))}")

    print("\nIn DEPLOYMENT (the simulated real world):")
    for abr in (emu_fugu, insitu_fugu):
        streams = deploy_and_collect([abr], 100, seed=777, watch_time_s=240.0)
        print(f"  {abr.name:<16} {summarize(streams)}")

    print(
        "\nThe emulation-trained model wins at home (it was trained there)"
        "\nbut loses its edge in deployment — the paper's core finding:"
        "\n'training on these traces did not generalize to the real-world"
        "\nsetting.' The gap grows with training scale; see"
        "\nbenchmarks/test_fig11_emulation_vs_insitu.py for the full run."
    )


if __name__ == "__main__":
    main()
