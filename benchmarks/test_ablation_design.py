"""Design-choice ablations beyond the paper's own (DESIGN.md commitments).

* **Planning horizon** — the paper plans over H = 5 chunks (§4.5). A
  greedy H = 1 controller with the same TTP loses smoothness (the variation
  term cannot see ahead) and/or stalls more.
* **On-policy iteration** — Fugu's telemetry loop retrains on data from its
  own deployment. A TTP trained only on the BBA/MPC bootstrap (off-policy)
  underperforms one that iterated on Fugu's own traffic.
* **Congestion control** — the primary experiment ran on BBR; part of the
  study's traffic used CUBIC (Fig. A1). The streaming stack supports both;
  the loss-based CUBIC shows higher RTT inflation under load.
"""

import numpy as np
import pytest

from repro.core.fugu import Fugu
from repro.experiment.insitu import (
    InSituTrainingConfig,
    deploy_and_collect,
    train_fugu_in_situ,
)

N_STREAMS = 150
SEED = 2024


def deploy(abr, seed=SEED, n=N_STREAMS):
    streams = deploy_and_collect([abr], n, seed=seed, watch_time_s=300.0)
    stall = sum(s.stall_time for s in streams) / sum(
        s.watch_time for s in streams
    )
    return {
        "stall_pct": stall * 100.0,
        "ssim_db": float(np.mean([s.mean_ssim_db for s in streams])),
        "var_db": float(np.mean([s.ssim_variation_db for s in streams])),
    }


def test_horizon_ablation(benchmark, fugu_predictor):
    def run():
        full = deploy(Fugu(fugu_predictor, horizon=5))
        greedy = deploy(Fugu(fugu_predictor, horizon=1, name="fugu"))
        return full, greedy

    full, greedy = benchmark.pedantic(run, rounds=1, iterations=1)
    print(
        f"\nHorizon ablation: H=5 stall={full['stall_pct']:.3f}% "
        f"var={full['var_db']:.3f} | H=1 stall={greedy['stall_pct']:.3f}% "
        f"var={greedy['var_db']:.3f}"
    )
    # The receding horizon must not hurt, and it buys smoothness and/or
    # stall robustness: the H=1 controller is worse on at least one axis
    # and not better on both.
    assert not (
        greedy["stall_pct"] < full["stall_pct"]
        and greedy["var_db"] < full["var_db"]
    ), (full, greedy)
    assert (
        greedy["var_db"] > full["var_db"] * 0.98
        or greedy["stall_pct"] > full["stall_pct"] * 0.98
    )


def test_on_policy_iteration_ablation(benchmark, fugu_predictor):
    def run():
        bootstrap_only = train_fugu_in_situ(
            InSituTrainingConfig(
                bootstrap_streams=120, iteration_streams=0, iterations=0,
                epochs=12, seed=3,
            )
        )
        off_policy = deploy(Fugu(bootstrap_only, name="fugu"))
        on_policy = deploy(Fugu(fugu_predictor))
        return off_policy, on_policy

    off_policy, on_policy = benchmark.pedantic(run, rounds=1, iterations=1)
    print(
        f"\nIn-situ iteration: bootstrap-only stall="
        f"{off_policy['stall_pct']:.3f}% vs iterated stall="
        f"{on_policy['stall_pct']:.3f}%"
    )
    # Iterating on Fugu's own deployment traffic does not hurt stalls, and
    # typically helps (the predictor sees the sizes Fugu actually sends).
    assert on_policy["stall_pct"] <= off_policy["stall_pct"] * 1.25, (
        off_policy, on_policy,
    )
    assert on_policy["ssim_db"] >= off_policy["ssim_db"] - 0.3


def test_congestion_control_comparison(benchmark):
    """BBR vs CUBIC service daemons (Fig. A1's CUBIC arm)."""
    from repro.abr.bba import BBA
    from repro.net.path import PopulationModel
    from repro.experiment.harness import TrialConfig

    def run():
        results = {}
        for cc_fraction, label in ((0.0, "bbr"), (1.0, "cubic")):
            config = TrialConfig(
                n_sessions=1,
                population=PopulationModel(cubic_fraction=cc_fraction),
            )
            streams = deploy_and_collect(
                [BBA()], 100, seed=77, config=config, watch_time_s=240.0
            )
            stall = sum(s.stall_time for s in streams) / sum(
                s.watch_time for s in streams
            )
            results[label] = {
                "stall_pct": stall * 100.0,
                "ssim_db": float(
                    np.mean([s.mean_ssim_db for s in streams])
                ),
                "rtt_ms": float(
                    np.mean(
                        [
                            r.info_at_send.rtt
                            for s in streams
                            for r in s.records[5:]
                        ]
                    )
                    * 1000.0
                ),
            }
        return results

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    print(
        f"\nCC comparison: BBR stall={results['bbr']['stall_pct']:.3f}% "
        f"rtt={results['bbr']['rtt_ms']:.0f}ms | CUBIC stall="
        f"{results['cubic']['stall_pct']:.3f}% "
        f"rtt={results['cubic']['rtt_ms']:.0f}ms"
    )
    # Both stacks stream successfully with sane quality.
    for row in results.values():
        assert row["ssim_db"] > 14.0
        assert row["stall_pct"] < 5.0
    # Loss-based CUBIC fills bottleneck queues: higher mean RTT under load.
    assert results["cubic"]["rtt_ms"] >= results["bbr"]["rtt_ms"]
