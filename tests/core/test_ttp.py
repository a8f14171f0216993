"""Tests for repro.core.ttp — the Transmission Time Predictor and its
ablated variants (§4.6)."""

import numpy as np
import pytest

from repro.abr.base import ChunkRecord
from repro.core.features import N_TIME_BINS, TCP_FEATURE_INDEX
from repro.core.ttp import (
    TransmissionTimePredictor,
    TtpConfig,
    throughput_bin_centers_bps,
    throughput_bin_index,
)
from repro.net.tcp import TcpInfo


def info(delivery_rate=5e6):
    return TcpInfo(cwnd=20, in_flight=5, min_rtt=0.04, rtt=0.05,
                   delivery_rate=delivery_rate)


def record(i, size=500_000, tx=1.0):
    return ChunkRecord(
        chunk_index=i, rung=5, size_bytes=size, ssim_db=15.0,
        transmission_time=tx, info_at_send=info(), send_time=0.0,
    )


class TestConfig:
    def test_paper_architecture_defaults(self):
        config = TtpConfig()
        assert config.horizon == 5
        assert config.hidden == (64, 64)
        assert config.n_output_bins == 21

    def test_unknown_ablation_rejected(self):
        with pytest.raises(ValueError, match="unknown ablated"):
            TtpConfig(ablated_features=frozenset({"bogus"}))

    def test_feature_mask_tcp(self):
        mask = TtpConfig(ablated_features=frozenset({"tcp"})).feature_mask()
        for index in TCP_FEATURE_INDEX.values():
            assert mask[index] == 0.0
        assert mask[:16].sum() == 16  # history untouched

    def test_feature_mask_single_stat(self):
        mask = TtpConfig(ablated_features=frozenset({"rtt"})).feature_mask()
        assert mask[TCP_FEATURE_INDEX["rtt"]] == 0.0
        assert mask[TCP_FEATURE_INDEX["cwnd"]] == 1.0

    def test_throughput_variant_masks_proposed_size(self):
        mask = TtpConfig(predict_throughput=True).feature_mask()
        assert mask[-1] == 0.0


class TestThroughputBins:
    def test_bin_index_monotone(self):
        assert throughput_bin_index(1e5) <= throughput_bin_index(1e6)
        assert throughput_bin_index(1e6) <= throughput_bin_index(1e8)

    def test_invalid_throughput(self):
        with pytest.raises(ValueError):
            throughput_bin_index(0.0)

    def test_centers_within_edges(self):
        centers = throughput_bin_centers_bps()
        assert len(centers) == N_TIME_BINS
        assert all(a < b for a, b in zip(centers, centers[1:]))


class TestPredictor:
    def test_one_model_per_horizon_step(self):
        ttp = TransmissionTimePredictor(TtpConfig(horizon=5), seed=0)
        assert len(ttp.models) == 5

    def test_distribution_shape_and_normalization(self):
        ttp = TransmissionTimePredictor(seed=0)
        sizes = np.array([1e5, 5e5, 1.5e6])
        dist = ttp.distribution([record(0)], info(), sizes, step=0)
        # Every size shares the bin centres: one broadcast row.
        assert dist.times.shape == (1, 21)
        assert dist.probs.shape == (3, 21)
        np.testing.assert_allclose(dist.probs.sum(axis=1), 1.0)
        dist.validate()

    def test_invalid_step_rejected(self):
        ttp = TransmissionTimePredictor(TtpConfig(horizon=2), seed=0)
        with pytest.raises(ValueError):
            ttp.distribution([], info(), np.array([1e5]), step=2)

    def test_point_estimate_variant_single_outcome(self):
        ttp = TransmissionTimePredictor(
            TtpConfig(point_estimate=True), seed=0
        )
        dist = ttp.distribution([], info(), np.array([1e5, 5e5]))
        assert dist.times.shape == (2, 1)
        np.testing.assert_array_equal(dist.probs, 1.0)

    def test_throughput_variant_times_scale_with_size(self):
        ttp = TransmissionTimePredictor(
            TtpConfig(predict_throughput=True), seed=0
        )
        dist = ttp.distribution([], info(), np.array([1e5, 2e5]))
        # Same throughput bins, so times double with size.
        np.testing.assert_allclose(dist.times[1], 2 * dist.times[0])
        # And the probabilities are identical (size is masked out).
        np.testing.assert_allclose(dist.probs[0], dist.probs[1])

    def test_label_for_time_vs_throughput(self):
        time_ttp = TransmissionTimePredictor(seed=0)
        tput_ttp = TransmissionTimePredictor(
            TtpConfig(predict_throughput=True), seed=0
        )
        r = record(0, size=500_000, tx=2.0)  # 2 Mbps
        assert time_ttp.label_for(r) == 4  # [1.75, 2.25)
        assert tput_ttp.label_for(r) == throughput_bin_index(2e6)

    def test_ablated_features_ignored_at_inference(self):
        ttp = TransmissionTimePredictor(
            TtpConfig(ablated_features=frozenset({"tcp"})), seed=0
        )
        sizes = np.array([5e5])
        a = ttp.distribution([], info(delivery_rate=1e5), sizes)
        b = ttp.distribution([], info(delivery_rate=5e7), sizes)
        np.testing.assert_allclose(a.probs, b.probs)

    def test_full_ttp_sensitive_to_tcp_state(self):
        ttp = TransmissionTimePredictor(seed=0)
        sizes = np.array([5e5])
        a = ttp.distribution([], info(delivery_rate=1e5), sizes)
        b = ttp.distribution([], info(delivery_rate=5e7), sizes)
        assert not np.allclose(a.probs, b.probs)

    def test_state_round_trip(self):
        ttp = TransmissionTimePredictor(seed=0)
        clone = TransmissionTimePredictor(seed=99)
        clone.load_state_dict(ttp.state_dict())
        sizes = np.array([5e5])
        np.testing.assert_allclose(
            clone.distribution([], info(), sizes).probs,
            ttp.distribution([], info(), sizes).probs,
        )

    def test_copy_is_frozen_snapshot(self):
        ttp = TransmissionTimePredictor(seed=0)
        snapshot = ttp.copy()
        for model in ttp.models:
            for _, value, __ in model.parameters():
                value += 1.0
        sizes = np.array([5e5])
        assert not np.allclose(
            snapshot.distribution([], info(), sizes).probs,
            ttp.distribution([], info(), sizes).probs,
        )

    def test_copy_holds_the_parameter_bytes_and_is_detached(self):
        from repro.core.train import TtpTrainer, build_ttp_datasets
        from repro.streaming.session import StreamResult
        from repro.abr.base import ChunkRecord

        ttp = TransmissionTimePredictor(TtpConfig(horizon=2), seed=4)
        ttp._set_tail_center(12.5)
        clone = ttp.copy()
        assert clone.stack.params.tobytes() == ttp.stack.params.tobytes()
        assert clone.state_dict() == ttp.state_dict()
        before = ttp.stack.params.tobytes()
        stream = StreamResult(0, "x", records=[
            ChunkRecord(i, 0, 4e5 + 1e3 * i, 15.0,
                        15.0 if i == 7 else 0.3 * (i % 5), info(),
                        2.0 * i)
            for i in range(40)
        ])
        TtpTrainer(clone, epochs=2, seed=0).train(
            build_ttp_datasets([stream], clone)
        )
        assert clone.stack.params.tobytes() != before
        assert ttp.stack.params.tobytes() == before
        assert clone.calibrate_tail([stream]) == 15.0
        assert ttp.tail_center_s == 12.5

    def test_horizon_mismatch_on_load(self):
        a = TransmissionTimePredictor(TtpConfig(horizon=3), seed=0)
        b = TransmissionTimePredictor(TtpConfig(horizon=5), seed=0)
        with pytest.raises(ValueError, match="horizon mismatch"):
            b.load_state_dict(a.state_dict())


class TestTailCalibration:
    def test_default_tail_center(self):
        ttp = TransmissionTimePredictor(seed=0)
        assert ttp.tail_center_s == 16.0

    def test_calibrate_uses_empirical_mean(self):
        from repro.streaming.session import StreamResult

        ttp = TransmissionTimePredictor(seed=0)
        stream = StreamResult(0, "x", records=[
            record(0, tx=1.0), record(1, tx=20.0), record(2, tx=30.0),
        ])
        tail = ttp.calibrate_tail([stream])
        assert tail == pytest.approx(25.0)

    def test_calibrate_caps_extremes(self):
        from repro.streaming.session import StreamResult

        ttp = TransmissionTimePredictor(seed=0)
        stream = StreamResult(0, "x", records=[record(0, tx=500.0)])
        assert ttp.calibrate_tail([stream], cap_s=60.0) == pytest.approx(60.0)

    def test_calibration_survives_state_dict_round_trip(self):
        from repro.streaming.session import StreamResult

        ttp = TransmissionTimePredictor(seed=0)
        stream = StreamResult(0, "x", records=[
            record(0, tx=20.0), record(1, tx=30.0),
        ])
        ttp.calibrate_tail([stream])
        assert ttp.tail_center_s == pytest.approx(25.0)
        clone = TransmissionTimePredictor(seed=99)
        clone.load_state_dict(ttp.state_dict())
        assert clone.tail_center_s == pytest.approx(25.0)
        # The calibrated tail shows up in the planner-facing distribution.
        dist = clone.distribution([], info(), np.array([5e5]))
        assert dist.times[0, -1] == pytest.approx(25.0)

    def test_calibration_survives_copy(self):
        from repro.streaming.session import StreamResult

        ttp = TransmissionTimePredictor(seed=0)
        stream = StreamResult(0, "x", records=[record(0, tx=40.0)])
        ttp.calibrate_tail([stream])
        frozen = ttp.copy()
        assert frozen.tail_center_s == pytest.approx(ttp.tail_center_s)
        # ... and is a snapshot: later recalibration does not leak into it.
        later = StreamResult(0, "x", records=[record(0, tx=12.0)])
        ttp.calibrate_tail([later])
        assert frozen.tail_center_s == pytest.approx(40.0)
        assert ttp.tail_center_s == pytest.approx(12.0)

    def test_uncalibrated_state_loads_with_default_tail(self):
        # Saves predating the calibrated-tail field must still load.
        ttp = TransmissionTimePredictor(seed=0)
        state = ttp.state_dict()
        del state["tail_center_s"]
        clone = TransmissionTimePredictor(seed=1)
        clone.load_state_dict(state)
        assert clone.tail_center_s == pytest.approx(16.0)

    def test_invalid_tail_center_rejected_on_load(self):
        ttp = TransmissionTimePredictor(seed=0)
        state = ttp.state_dict()
        state["tail_center_s"] = -1.0
        with pytest.raises(ValueError, match="tail_center_s"):
            TransmissionTimePredictor(seed=0).load_state_dict(state)

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_tail_center_rejected_on_load(self, literal):
        # Python's json writes and reads these bare literals. NaN passes a
        # ``tail <= 0`` guard; as a tail centre it makes every stall term —
        # so every score — NaN, and argmax then streams the lowest rung.
        import json

        from repro.abr.base import AbrContext
        from repro.core.controller import ValueIterationController
        from tests.core.test_controller_reference import make_menu

        ttp = TransmissionTimePredictor(seed=0)
        text = json.dumps(ttp.state_dict()).replace(
            '"tail_center_s": 16.0', f'"tail_center_s": {literal}'
        )
        state = json.loads(text)
        assert not np.isfinite(state["tail_center_s"])
        with pytest.raises(ValueError, match="tail_center_s"):
            TransmissionTimePredictor.from_state_dict(state)
        # Loading into a live predictor leaves it as it was, weights too:
        # the controller behind it never plans over the poisoned row.
        live = TransmissionTimePredictor(seed=7)
        before = live.state_dict()
        with pytest.raises(ValueError, match="tail_center_s"):
            live.load_state_dict(state)
        assert live.state_dict() == before
        context = AbrContext(
            lookahead=[make_menu(0, [1e5, 9e5], [8.0, 15.0])] * 2,
            buffer_s=1.0,
            tcp_info=info(),
        )
        controller = ValueIterationController(horizon=2)
        assert np.isfinite(controller._scores(context, live, 2)).all()

    def test_calibrate_no_tail_samples_is_noop(self):
        from repro.streaming.session import StreamResult

        ttp = TransmissionTimePredictor(seed=0)
        before = ttp.tail_center_s
        stream = StreamResult(0, "x", records=[record(0, tx=1.0)])
        assert ttp.calibrate_tail([stream]) == before
