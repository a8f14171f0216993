"""Tests for repro.core.train — datasets, TTP training, daily retraining."""

import numpy as np
import pytest

from repro.abr.base import ChunkRecord
from repro.core.train import (
    DailyRetrainer,
    TtpTrainer,
    build_ttp_datasets,
)
from repro.core.ttp import TransmissionTimePredictor, TtpConfig
from repro.learn.training import Dataset
from repro.net.tcp import TcpInfo
from repro.streaming.session import StreamResult

from tests.counting import CountingSequence


def info(delivery_rate=5e6):
    return TcpInfo(cwnd=20, in_flight=5, min_rtt=0.04, rtt=0.05,
                   delivery_rate=delivery_rate)


def make_stream(n_chunks=20, stream_id=0, tx=1.0):
    records = [
        ChunkRecord(
            chunk_index=i, rung=5, size_bytes=500_000 + 1000 * i,
            ssim_db=15.0, transmission_time=tx, info_at_send=info(),
            send_time=i * 2.0,
        )
        for i in range(n_chunks)
    ]
    return StreamResult(stream_id, "x", records=records)


class TestBuildDatasets:
    def test_one_dataset_per_horizon_step(self):
        ttp = TransmissionTimePredictor(TtpConfig(horizon=3), seed=0)
        datasets = build_ttp_datasets([make_stream(10)], ttp)
        assert len(datasets) == 3

    def test_example_counts_decrease_with_step(self):
        # Step k needs chunk i+k to exist, so later steps have fewer rows.
        ttp = TransmissionTimePredictor(TtpConfig(horizon=3), seed=0)
        datasets = build_ttp_datasets([make_stream(10)], ttp)
        lengths = [len(d) for d in datasets]
        assert lengths == [10, 9, 8]

    def test_labels_match_bins(self):
        from repro.core.features import time_bin_index

        ttp = TransmissionTimePredictor(TtpConfig(horizon=1), seed=0)
        datasets = build_ttp_datasets([make_stream(5, tx=2.0)], ttp)
        assert all(t == time_bin_index(2.0) for t in datasets[0].targets)

    def test_a_long_stream_equals_full_prefix_datasets(self):
        # The features read the last HISTORY_LEN records only, so each
        # example is built from that window: the datasets are those the
        # full prefixes give, bit for bit, and the records read grow
        # linearly with the stream instead of quadratically.
        from repro.core.features import HISTORY_LEN

        rng = np.random.default_rng(4)
        n, horizon = 2000, 5
        records = [
            ChunkRecord(
                chunk_index=i, rung=int(rng.integers(10)),
                size_bytes=float(rng.uniform(5e4, 2e6)), ssim_db=15.0,
                transmission_time=float(rng.lognormal(0.0, 1.0)),
                info_at_send=info(float(rng.uniform(1e5, 5e7))),
                send_time=2.0 * i,
            )
            for i in range(n)
        ]
        ttp = TransmissionTimePredictor(TtpConfig(horizon=horizon), seed=0)
        stream = StreamResult(0, "x", records=CountingSequence(records))
        got = build_ttp_datasets([stream], ttp, sample_weight=0.5)
        assert stream.records.touched <= (HISTORY_LEN + 1 + 2 * horizon) * n

        features = [[] for _ in range(horizon)]
        labels = [[] for _ in range(horizon)]
        for i in range(n):
            steps = min(horizon, n - i)
            sizes = np.array([records[i + k].size_bytes for k in range(steps)])
            rows = ttp.masked_features(records[:i], records[i].info_at_send, sizes)
            for k in range(steps):
                features[k].append(rows[k])
                labels[k].append(ttp.label_for(records[i + k]))
        for k in range(horizon):
            assert np.array_equal(got[k].features, np.vstack(features[k]))
            assert np.array_equal(got[k].targets, np.asarray(labels[k]))
            assert np.array_equal(got[k].weights, np.full(n - k, 0.5))

    def test_sample_weight_applied(self):
        ttp = TransmissionTimePredictor(TtpConfig(horizon=1), seed=0)
        datasets = build_ttp_datasets([make_stream(5)], ttp, sample_weight=0.25)
        np.testing.assert_array_equal(datasets[0].weights, 0.25)

    def test_too_short_streams_rejected(self):
        ttp = TransmissionTimePredictor(TtpConfig(horizon=5), seed=0)
        with pytest.raises(ValueError, match="no training examples"):
            build_ttp_datasets([make_stream(3)], ttp)

    def test_feature_masking_applied(self):
        ttp = TransmissionTimePredictor(
            TtpConfig(horizon=1, ablated_features=frozenset({"tcp"})), seed=0
        )
        datasets = build_ttp_datasets([make_stream(5)], ttp)
        from repro.core.features import TCP_SLICE

        assert np.all(datasets[0].features[:, TCP_SLICE] == 0.0)


class TestTtpTrainer:
    def test_training_reduces_loss(self):
        ttp = TransmissionTimePredictor(TtpConfig(horizon=2), seed=0)
        streams = [make_stream(30, stream_id=i, tx=1.0 + i * 0.1) for i in range(5)]
        datasets = build_ttp_datasets(streams, ttp)
        trainer = TtpTrainer(ttp, epochs=8, seed=0)
        reports = trainer.train(datasets)
        assert len(reports) == 2
        for report in reports:
            assert report.train_losses[-1] < report.train_losses[0]

    def test_wrong_dataset_count_rejected(self):
        ttp = TransmissionTimePredictor(TtpConfig(horizon=2), seed=0)
        datasets = build_ttp_datasets([make_stream(10)], ttp)
        with pytest.raises(ValueError):
            TtpTrainer(ttp).train(datasets[:1])

    def test_evaluate_reports_metrics(self):
        ttp = TransmissionTimePredictor(TtpConfig(horizon=1), seed=0)
        datasets = build_ttp_datasets([make_stream(40)], ttp)
        trainer = TtpTrainer(ttp, epochs=10, seed=0)
        trainer.train(datasets)
        evaluation = trainer.evaluate(datasets[0], step=0)
        assert 0.0 <= evaluation.bin_accuracy <= 1.0
        assert evaluation.cross_entropy >= 0.0
        assert evaluation.n_examples == 40

    def test_trained_ttp_beats_untrained_on_accuracy(self):
        config = TtpConfig(horizon=1)
        trained = TransmissionTimePredictor(config, seed=0)
        streams = [make_stream(50, stream_id=i) for i in range(4)]
        datasets = build_ttp_datasets(streams, trained)
        trainer = TtpTrainer(trained, epochs=10, seed=0)
        trainer.train(datasets)
        trained_eval = trainer.evaluate(datasets[0])
        untrained = TransmissionTimePredictor(config, seed=1)
        untrained_eval = TtpTrainer(untrained).evaluate(datasets[0])
        assert trained_eval.cross_entropy < untrained_eval.cross_entropy


class TestDailyRetrainer:
    def test_window_eviction(self):
        ttp = TransmissionTimePredictor(TtpConfig(horizon=1), seed=0)
        retrainer = DailyRetrainer(ttp, window_days=3, epochs_per_day=1)
        for day in range(5):
            retrainer.add_day([make_stream(10, stream_id=day)])
        assert len(retrainer._days) == 3
        assert retrainer.current_day == 5

    def test_retrain_without_data_raises(self):
        ttp = TransmissionTimePredictor(TtpConfig(horizon=1), seed=0)
        with pytest.raises(RuntimeError):
            DailyRetrainer(ttp).retrain()

    def test_recency_weighting(self):
        ttp = TransmissionTimePredictor(TtpConfig(horizon=1), seed=0)
        retrainer = DailyRetrainer(
            ttp, window_days=14, recency_decay=0.5, epochs_per_day=1
        )
        retrainer.add_day([make_stream(6, stream_id=0)])
        retrainer.add_day([make_stream(6, stream_id=1)])
        # Peek at the weights the next retrain would use.
        datasets = None
        reports = retrainer.retrain()
        assert reports  # trained without error

    def test_snapshots_are_frozen(self):
        ttp = TransmissionTimePredictor(TtpConfig(horizon=1), seed=0)
        retrainer = DailyRetrainer(ttp, epochs_per_day=2)
        retrainer.add_day([make_stream(20, stream_id=0)])
        retrainer.retrain()
        snapshot = retrainer.snapshot()
        sizes = np.array([5e5])
        before = snapshot.distribution([], info(), sizes).probs.copy()
        retrainer.add_day([make_stream(20, stream_id=1, tx=5.0)])
        retrainer.retrain()
        after_snapshot = snapshot.distribution([], info(), sizes).probs
        after_live = ttp.distribution([], info(), sizes).probs
        np.testing.assert_allclose(before, after_snapshot)
        assert not np.allclose(before, after_live)

    def test_invalid_parameters(self):
        ttp = TransmissionTimePredictor(TtpConfig(horizon=1), seed=0)
        with pytest.raises(ValueError):
            DailyRetrainer(ttp, window_days=0)
        with pytest.raises(ValueError):
            DailyRetrainer(ttp, recency_decay=0.0)


def same_datasets(a, b):
    def bits(x, y):
        return x.shape == y.shape and x.dtype == y.dtype and (
            x.tobytes() == y.tobytes()
        )

    return len(a) == len(b) and all(
        bits(p.features, q.features)
        and bits(p.targets, q.targets)
        and bits(p.weights, q.weights)
        for p, q in zip(a, b)
    )


def pooled_from_scratch(retrainer):
    """``window_datasets`` as it was before the day cache: every retained
    day's features rebuilt, weighted as they are built."""
    per_step = [[] for _ in range(retrainer.predictor.config.horizon)]
    for day, streams in retrainer.window_state():
        if not streams:
            continue
        weight = retrainer.recency_decay ** (retrainer.current_day - day)
        for k, ds in enumerate(
            build_ttp_datasets(
                streams, retrainer.predictor, sample_weight=weight,
                allow_empty=True,
            )
        ):
            if len(ds):
                per_step[k].append(ds)
    if any(not parts for parts in per_step):
        return None
    return [Dataset.concatenate(parts) for parts in per_step]


def counted_day(day, n_streams=2):
    """A day of streams whose records count how often they are read."""
    streams = [
        make_stream(6 + day + i, stream_id=10 * day + i, tx=0.5 + 0.4 * i)
        for i in range(n_streams)
    ]
    for stream in streams:
        stream.records = CountingSequence(stream.records)
    return streams


def touched(days):
    return [sum(s.records.touched for s in streams) for streams in days]


class TestWindowDatasetCache:
    """A day's features are built once, when the day is first pooled, and
    only its recency weight changes as it ages."""

    def make(self, **kwargs):
        ttp = TransmissionTimePredictor(TtpConfig(horizon=2), seed=0)
        return DailyRetrainer(
            ttp, window_days=3, recency_decay=0.8, epochs_per_day=1, **kwargs
        )

    def test_equals_the_from_scratch_pooling_every_day(self):
        retrainer = self.make()
        assert retrainer.window_datasets() is None
        for day in range(6):
            # Day 2 is empty; it still ages the others.
            retrainer.add_day([] if day == 2 else counted_day(day))
            datasets = retrainer.window_datasets()
            assert same_datasets(datasets, pooled_from_scratch(retrainer))
            # What the caller gets is its own: no view of the cache.
            datasets[0].features[...] = np.nan
            datasets[0].weights[...] = np.nan
            assert same_datasets(
                retrainer.window_datasets(), pooled_from_scratch(retrainer)
            )

    def test_a_sparse_window_still_pools_to_none(self):
        retrainer = self.make()
        retrainer.add_day([make_stream(1)])  # no example for step 1
        assert retrainer.window_datasets() is None
        retrainer.add_day([make_stream(4, stream_id=1)])
        assert same_datasets(
            retrainer.window_datasets(), pooled_from_scratch(retrainer)
        )

    def test_two_poolings_in_one_day_build_features_once(self):
        retrainer = self.make()
        days = []
        for day in range(3):
            days.append(counted_day(day))
            retrainer.add_day(days[-1])
            before = touched(days)
            retrainer.window_datasets()
            first = touched(days)
            # Only the new day's records were read ...
            assert first[:-1] == before[:-1]
            assert first[-1] > before[-1]
            # ... and neither pooling again nor retraining reads any.
            retrainer.window_datasets()
            retrainer.retrain()
            retrainer.retrain(retrainer.window_datasets())
            assert touched(days) == first

    def test_sliding_past_the_window_evicts(self):
        retrainer = self.make()
        for day in range(5):
            retrainer.add_day(counted_day(day))
            retrainer.window_datasets()
            assert sorted(retrainer._day_sets) == [
                d for d, _ in retrainer.window_state()
            ]
        assert sorted(retrainer._day_sets) == [3, 4, 5]
        # Never pooled, never cached — and evicting it is not an error.
        idle = self.make()
        for day in range(5):
            idle.add_day(counted_day(day))
        assert idle._day_sets == {}

    def test_restore_rebuilds_lazily_to_the_same_bits(self):
        retrainer = self.make(seed=4)
        for day in range(4):
            retrainer.add_day(counted_day(day))
            retrainer.window_datasets()
        restored = DailyRetrainer.restore(
            retrainer.predictor.copy(),
            retrainer.current_day,
            retrainer.window_state(),
            window_days=3,
            recency_decay=0.8,
            epochs_per_day=1,
            seed=4,
        )
        assert restored._day_sets == {}
        assert same_datasets(
            restored.window_datasets(), retrainer.window_datasets()
        )
        assert sorted(restored._day_sets) == [2, 3, 4]
        for each in (retrainer, restored):
            each.add_day(counted_day(4))
            each.retrain()
        assert (
            restored.predictor.state_dict() == retrainer.predictor.state_dict()
        )

    def test_retrain_on_given_datasets_is_retrain(self):
        a, b = self.make(seed=2), self.make(seed=2)
        for retrainer in (a, b):
            retrainer.add_day(counted_day(0))
        reports_a = a.retrain()
        reports_b = b.retrain(b.window_datasets())
        assert a.predictor.state_dict() == b.predictor.state_dict()
        assert [r.train_losses for r in reports_a] == [
            r.train_losses for r in reports_b
        ]
