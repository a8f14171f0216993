"""§4.6 deployment ablations: point-estimate Fugu, linear Fugu, staleness.

* "we deployed a point-estimate version of Fugu on Puffer ... It performed
  much worse than normal Fugu: the rebuffering ratio was 3–9× worse,
  without significant improvement in SSIM."
* "A linear-regression model ... performs much worse on prediction
  accuracy ... its rebuffering ratio was 2–5× worse."
* Daily retraining vs out-of-date TTPs: "we were not able to detect a
  significant difference in performance between any of these ABR schemes"
  (the deployment environment is close to stationary over months).
"""

import numpy as np
import pytest

from repro.core.fugu import Fugu
from repro.core.train import TtpTrainer, build_ttp_datasets
from repro.core.ttp import TransmissionTimePredictor, TtpConfig
from repro.experiment.insitu import deploy_and_collect

N_EVAL_STREAMS = 220
EVAL_SEED = 4242


def deploy(abr, seed=EVAL_SEED):
    streams = deploy_and_collect(
        [abr], N_EVAL_STREAMS, seed=seed, watch_time_s=300.0
    )
    stall = sum(s.stall_time for s in streams) / sum(
        s.watch_time for s in streams
    )
    return {
        "stall_pct": stall * 100.0,
        "ssim_db": float(np.mean([s.mean_ssim_db for s in streams])),
    }


@pytest.fixture(scope="module")
def ablated_deployments(fugu_predictor):
    """Deploy full Fugu plus ablated variants trained on the same data."""
    from repro.abr.bba import BBA
    from repro.abr.mpc import MpcHm

    train_streams = deploy_and_collect(
        [BBA(), MpcHm()], 150, seed=31, watch_time_s=240.0
    )

    def trained_variant(**config_kwargs):
        predictor = TransmissionTimePredictor(
            TtpConfig(**config_kwargs), seed=13
        )
        predictor.calibrate_tail(train_streams)
        TtpTrainer(predictor, epochs=12, seed=13).train(
            build_ttp_datasets(train_streams, predictor)
        )
        return predictor

    results = {"fugu": deploy(Fugu(fugu_predictor))}
    point = trained_variant(point_estimate=True)
    results["fugu_point_estimate"] = deploy(
        Fugu(point, name="fugu_point_estimate")
    )
    linear = trained_variant(hidden=())
    results["fugu_linear"] = deploy(Fugu(linear, name="fugu_linear"))
    return results


def test_point_estimate_and_linear_deployments(benchmark, ablated_deployments):
    results = benchmark(lambda: ablated_deployments)
    print("\n§4.6 — deployed ablations")
    for name, row in results.items():
        print(
            f"  {name:<22} stall={row['stall_pct']:.3f}% "
            f"ssim={row['ssim_db']:.2f} dB"
        )

    full = results["fugu"]
    point = results["fugu_point_estimate"]
    linear = results["fugu_linear"]

    # The point-estimate TTP rebuffers several times more than full Fugu
    # (paper: 3–9×) without a meaningful SSIM gain.
    assert point["stall_pct"] > 1.5 * full["stall_pct"], results
    assert point["ssim_db"] < full["ssim_db"] + 0.4, results

    # The linear TTP also rebuffers more (paper: 2–5×).
    assert linear["stall_pct"] > 1.3 * full["stall_pct"], results


def test_staleness_ablation(benchmark):
    """Out-of-date TTPs vs the continuously retrained one (§4.6).

    The paper ran a randomized trial of TTP snapshots from February through
    May against the daily-retrained model during August and "were not able
    to detect a significant difference": the deployment distribution is
    close to stationary over months. Here, a :class:`DailyRetrainer` runs
    for several simulated days; the day-2 snapshot ("February") and the
    final model ("live") are deployed on identical traffic.
    """
    from repro.abr.bba import BBA
    from repro.abr.mpc import MpcHm
    from repro.core.train import DailyRetrainer

    def run():
        predictor = TransmissionTimePredictor(TtpConfig(), seed=17)
        retrainer = DailyRetrainer(predictor, epochs_per_day=5, seed=17)
        snapshot = None
        for day in range(5):
            day_streams = deploy_and_collect(
                [BBA(), MpcHm(), Fugu(predictor)],
                60,
                seed=600 + day,
                watch_time_s=240.0,
            )
            predictor.calibrate_tail(day_streams)
            retrainer.add_day(day_streams)
            retrainer.retrain()
            if day == 1:
                snapshot = retrainer.snapshot()  # the "out-of-date" TTP
        assert snapshot is not None
        stale_result = deploy(Fugu(snapshot, name="fugu"), seed=5555)
        live_result = deploy(Fugu(predictor), seed=5555)
        return stale_result, live_result

    stale, live = benchmark.pedantic(run, rounds=1, iterations=1)
    print(
        f"\n§4.6 — staleness: live stall={live['stall_pct']:.3f}% "
        f"vs stale stall={stale['stall_pct']:.3f}%; "
        f"live ssim={live['ssim_db']:.2f} vs stale {stale['ssim_db']:.2f}"
    )
    # No significant difference (paper: "daily retraining ... appears to be
    # overkill" in a stationary environment).
    assert stale["ssim_db"] == pytest.approx(live["ssim_db"], abs=0.5)
    assert abs(stale["stall_pct"] - live["stall_pct"]) < max(
        1.0 * live["stall_pct"], 0.25
    )
