"""Tests for repro.core.features — TTP inputs and time-bin discretization."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.abr.base import ChunkRecord
from repro.core.features import (
    FEATURE_DIM,
    HISTORY_LEN,
    N_TIME_BINS,
    PROPOSED_SIZE_INDEX,
    TCP_FEATURE_INDEX,
    make_feature_matrix,
    make_features,
    time_bin_centers,
    time_bin_index,
)
from repro.net.tcp import TcpInfo

from tests.counting import CountingSequence


def info(**kwargs):
    defaults = dict(cwnd=20, in_flight=5, min_rtt=0.04, rtt=0.05,
                    delivery_rate=5e6)
    defaults.update(kwargs)
    return TcpInfo(**defaults)


def record(i, size=500_000, tx=1.0):
    return ChunkRecord(
        chunk_index=i, rung=5, size_bytes=size, ssim_db=15.0,
        transmission_time=tx, info_at_send=info(), send_time=0.0,
    )


class TestTimeBins:
    def test_paper_bin_structure(self):
        # 21 bins: [0, 0.25), [0.25, 0.75), ..., [9.75, inf) (§4.5).
        assert N_TIME_BINS == 21
        assert time_bin_index(0.0) == 0
        assert time_bin_index(0.24) == 0
        assert time_bin_index(0.25) == 1
        assert time_bin_index(0.74) == 1
        assert time_bin_index(0.75) == 2
        assert time_bin_index(9.74) == 19
        assert time_bin_index(9.75) == 20
        assert time_bin_index(1000.0) == 20

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            time_bin_index(-0.1)

    def test_centers_fall_in_their_bins(self):
        centers = time_bin_centers()
        assert len(centers) == N_TIME_BINS
        for j, center in enumerate(centers):
            assert time_bin_index(float(center)) == j

    def test_centers_monotone(self):
        centers = time_bin_centers()
        assert all(a < b for a, b in zip(centers, centers[1:]))

    @given(st.floats(0.0, 100.0))
    def test_bin_index_in_range(self, t):
        assert 0 <= time_bin_index(t) < N_TIME_BINS

    @given(st.floats(0.0, 50.0), st.floats(0.0, 50.0))
    def test_bin_index_monotone(self, a, b):
        if a <= b:
            assert time_bin_index(a) <= time_bin_index(b)


class TestFeatures:
    def test_dimension_is_22(self):
        # 8 sizes + 8 times + 5 TCP stats + proposed size (§4.2, t=8).
        assert FEATURE_DIM == 22
        features = make_features([], info(), 500_000)
        assert features.shape == (22,)

    def test_empty_history_zero_padded(self):
        features = make_features([], info(), 500_000)
        assert np.all(features[: 2 * HISTORY_LEN] == 0.0)

    def test_partial_history_left_padded(self):
        features = make_features([record(0)], info(), 500_000)
        sizes = features[:HISTORY_LEN]
        assert np.all(sizes[:-1] == 0.0)
        assert sizes[-1] > 0.0

    def test_history_truncated_to_last_eight(self):
        history = [record(i, size=(i + 1) * 100_000) for i in range(12)]
        features = make_features(history, info(), 500_000)
        # Oldest retained chunk is #4 (size 500 kB).
        expected_first = np.log1p(500_000 / 1e5)
        assert features[0] == pytest.approx(expected_first)

    def test_tcp_features_ordering(self):
        features = make_features([], info(cwnd=0, in_flight=0, min_rtt=0.0,
                                          rtt=0.0, delivery_rate=0.0),
                                 500_000)
        for index in TCP_FEATURE_INDEX.values():
            assert features[index] == 0.0

    def test_delivery_rate_resolves_slow_regimes(self):
        # log1p scaling: 0.1 vs 1 Mbit/s must differ substantially, which
        # linear scaling to 10 Mbit/s units would not provide.
        slow = make_features([], info(delivery_rate=1e5), 500_000)
        fast = make_features([], info(delivery_rate=1e6), 500_000)
        index = TCP_FEATURE_INDEX["delivery_rate"]
        assert fast[index] - slow[index] > 0.9

    def test_proposed_size_is_last_feature(self):
        features = make_features([], info(), 500_000)
        assert features[PROPOSED_SIZE_INDEX] == pytest.approx(
            np.log1p(500_000 / 1e5)
        )

    def test_invalid_proposed_size(self):
        with pytest.raises(ValueError):
            make_features([], info(), 0.0)

    def test_matrix_matches_vector_rows(self):
        history = [record(i) for i in range(3)]
        sizes = np.array([100_000.0, 900_000.0])
        matrix = make_feature_matrix(history, info(), sizes)
        assert matrix.shape == (2, FEATURE_DIM)
        for row, size in zip(matrix, sizes):
            np.testing.assert_allclose(
                row, make_features(history, info(), float(size))
            )

    def test_matrix_rejects_nonpositive_sizes(self):
        with pytest.raises(ValueError):
            make_feature_matrix([], info(), np.array([1.0, 0.0]))


class TestHistoryTailOnly:
    def test_history_features_touch_only_the_last_eight(self):
        # A four-hour session is ~7000 records; copying them per decision
        # made the decide step quadratic in stream length.
        history = CountingSequence(record(i, tx=0.1 + i) for i in range(500))
        features = make_features(history, info(), 500_000)
        assert history.touched <= HISTORY_LEN
        np.testing.assert_array_equal(
            features, make_features([record(i, tx=0.1 + i) for i in range(500)], info(), 500_000)
        )
