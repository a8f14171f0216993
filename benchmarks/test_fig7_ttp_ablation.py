"""Figure 7: ablation study of Fugu's Transmission Time Predictor.

"Removing each of the TTP's inputs, outputs, or features reduced its
ability to predict the transmission time of a video chunk. A
non-probabilistic TTP ('Point Estimate') and one that predicts throughput
without regard to chunk size ('Throughput Predictor') both performed
markedly worse. TCP-layer statistics (RTT, CWND) were also helpful."

Reproduction: train every variant on the same deployment telemetry and
compare held-out prediction error — the mean absolute error of the expected
transmission time — on two views:

* **overall**: every chunk of the held-out streams (architecture and
  output-representation ablations separate clearly here);
* **cold start**: the first chunks of each stream, where there is no
  history and the TCP statistics carry the signal ("The TTP's use of
  low-level TCP statistics was helpful on a cold start", §5) — this is
  where the per-feature TCP ablations and the size-blind throughput
  predictor fall behind.
"""

import numpy as np
import pytest

from repro.abr.bba import BBA
from repro.abr.mpc import MpcHm
from repro.core.fugu import make_fugu_variant
from repro.core.train import TtpTrainer, build_ttp_datasets
from repro.core.ttp import TransmissionTimePredictor, TtpConfig
from repro.experiment.insitu import deploy_and_collect

VARIANTS = [
    "full",
    "point_estimate",
    "throughput",
    "linear",
    "no_tcp",
    "no_rtt",
    "no_cwnd",
    "no_in_flight",
    "no_delivery_rate",
    "shallow",
]

COLD_CHUNKS = 2


def expected_abs_errors(predictor, streams, first_only=None):
    """Per-chunk |E[T̂] − T| over held-out telemetry."""
    errors = []
    for stream in streams:
        records = stream.records
        n = len(records) if first_only is None else min(first_only, len(records))
        if n == 0:
            continue
        rows = [
            predictor.masked_features(
                records[:i], records[i].info_at_send,
                np.array([records[i].size_bytes]),
            )[0]
            for i in range(n)
        ]
        probs = predictor.models[0].predict_proba(np.vstack(rows))
        if predictor.config.predict_throughput:
            sizes = np.array([r.size_bytes for r in records[:n]])
            times = sizes[:, None] * 8.0 / predictor._tput_centers[None, :]
        else:
            times = np.tile(predictor._time_centers, (n, 1))
        if predictor.config.point_estimate:
            best = probs.argmax(axis=1)
            expected = times[np.arange(n), best]
        else:
            expected = (probs * times).sum(axis=1)
        actual = np.array(
            [min(r.transmission_time, 60.0) for r in records[:n]]
        )
        errors.extend(np.abs(expected - actual))
    return errors


@pytest.fixture(scope="module")
def ablation_errors():
    train_streams = deploy_and_collect(
        [BBA(), MpcHm()], 120, seed=55, watch_time_s=240.0
    )
    test_streams = deploy_and_collect(
        [BBA(), MpcHm()], 60, seed=66, watch_time_s=240.0
    )
    errors = {}
    for variant in VARIANTS:
        base_predictor, _ = make_fugu_variant(variant, seed=7, horizon=5)
        predictor = TransmissionTimePredictor(
            TtpConfig(
                horizon=1,
                hidden=base_predictor.config.hidden,
                point_estimate=base_predictor.config.point_estimate,
                predict_throughput=base_predictor.config.predict_throughput,
                ablated_features=base_predictor.config.ablated_features,
            ),
            seed=7,
        )
        predictor.calibrate_tail(train_streams)
        datasets = build_ttp_datasets(train_streams, predictor)
        TtpTrainer(predictor, epochs=12, seed=7).train(datasets)
        errors[variant] = {
            "overall": float(
                np.mean(expected_abs_errors(predictor, test_streams))
            ),
            "cold": float(
                np.mean(
                    expected_abs_errors(
                        predictor, test_streams, first_only=COLD_CHUNKS
                    )
                )
            ),
        }
    return errors


def test_fig7_ttp_ablation(benchmark, ablation_errors):
    errors = benchmark(lambda: ablation_errors)
    print("\nFigure 7 — TTP ablation (held-out mean |E[T̂] − T|, seconds)")
    print(f"{'variant':<20}{'overall':>10}{'cold start':>12}")
    for variant in sorted(errors, key=lambda v: errors[v]["overall"]):
        marker = " <- full TTP" if variant == "full" else ""
        print(
            f"{variant:<20}{errors[variant]['overall']:>10.4f}"
            f"{errors[variant]['cold']:>12.4f}{marker}"
        )

    full = errors["full"]

    # Architecture / output-representation ablations: markedly worse
    # overall, as the paper's bar chart shows.
    assert errors["linear"]["overall"] > 1.3 * full["overall"], errors
    assert errors["shallow"]["overall"] > 1.05 * full["overall"], errors
    assert errors["point_estimate"]["overall"] > 1.05 * full["overall"], errors

    # No ablation is materially better than the full TTP overall.
    for variant, err in errors.items():
        assert err["overall"] >= full["overall"] * 0.95, (variant, errors)

    # Cold start: the full TTP has the best (or tied-best) error, the
    # size-blind throughput predictor is markedly worse, and dropping the
    # TCP statistics (jointly or individually: RTT, CWND, in-flight) hurts.
    for variant, err in errors.items():
        assert full["cold"] <= err["cold"] + 0.005, (variant, errors)
    assert errors["throughput"]["cold"] > 1.08 * full["cold"], errors
    for tcp_ablation in ("no_tcp", "no_rtt", "no_cwnd", "no_in_flight"):
        assert errors[tcp_ablation]["cold"] > 1.02 * full["cold"], (
            tcp_ablation, errors,
        )
