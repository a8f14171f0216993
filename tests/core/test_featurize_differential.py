"""``build_ttp_datasets`` against its frozen per-record predecessor.

The live function featurizes each chunk once and copies a record's history
block from its predecessors' values; ``tests/core/featurize_reference.py``
rebuilds every decision's feature matrix from scratch. Every step's
features, targets and weights must agree as ``uint64`` bit patterns — no
tolerance.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.abr.base import ChunkRecord
from repro.core.train import build_ttp_datasets
from repro.core.ttp import TransmissionTimePredictor, TtpConfig
from repro.net.tcp import TcpInfo
from repro.streaming.session import StreamResult

from tests.core.featurize_reference import reference_datasets

# Bin edges (0.25 s, 9.75 s), either side of them, and the open tail.
TIMES = [0.0, 0.25, np.nextafter(0.25, 0), 0.75, 9.75,
         np.nextafter(9.75, 0), np.nextafter(9.75, 20), 30.0, 1e4]

times = st.one_of(
    st.sampled_from(TIMES),
    st.floats(0.0, 60.0, allow_nan=False, allow_infinity=False),
)
# tcp_info fields are zero on an idle connection.
tcp_fields = st.one_of(
    st.just(0.0), st.floats(0.0, 1e9, allow_nan=False, allow_infinity=False)
)
sizes = st.floats(1.0, 2e7, allow_nan=False, allow_infinity=False)


@st.composite
def records(draw, n):
    return [
        ChunkRecord(
            chunk_index=i, rung=0, size_bytes=draw(sizes), ssim_db=15.0,
            transmission_time=draw(times),
            info_at_send=TcpInfo(*(draw(tcp_fields) for _ in range(5))),
            send_time=2.0 * i,
        )
        for i in range(n)
    ]


@st.composite
def streams(draw):
    # Empty, single-chunk and shorter-than-the-horizon streams among them.
    lengths = draw(
        st.lists(st.one_of(st.sampled_from([0, 1, 2, 4]), st.integers(0, 30)),
                 max_size=6)
    )
    return [
        StreamResult(j, "x", records=draw(records(n)))
        for j, n in enumerate(lengths)
    ]


CONFIGS = [
    TtpConfig(),
    TtpConfig(horizon=1),
    TtpConfig(horizon=3, ablated_features=frozenset({"tcp"})),
    TtpConfig(ablated_features=frozenset({"history_times", "cwnd"})),
    TtpConfig(predict_throughput=True),
]


def bits(values, dtype):
    return np.ascontiguousarray(np.asarray(values, dtype=dtype)).view(np.uint64)


@settings(max_examples=150, deadline=None)
@given(
    day=streams(),
    config=st.sampled_from(CONFIGS),
    weight=st.sampled_from([1.0, 0.9**13, 0.5]),
)
def test_every_step_equals_the_per_record_datasets(day, config, weight):
    predictor = TransmissionTimePredictor(config, seed=0)
    expected = reference_datasets(day, predictor, sample_weight=weight)
    got = build_ttp_datasets(
        day, predictor, sample_weight=weight, allow_empty=True
    )
    assert len(got) == config.horizon
    for k, (dataset, reference) in enumerate(zip(got, expected)):
        if reference is None:
            assert len(dataset) == 0, f"step {k}"
            continue
        features, targets, weights = reference
        assert dataset.features.shape == features.shape, f"step {k}"
        assert np.array_equal(
            bits(dataset.features, np.float64), bits(features, np.float64)
        ), f"step {k}: features differ"
        assert np.array_equal(
            bits(dataset.targets, np.int64), bits(targets, np.int64)
        ), f"step {k}: targets differ"
        assert np.array_equal(
            bits(dataset.weights, np.float64), bits(weights, np.float64)
        ), f"step {k}: weights differ"


@pytest.mark.parametrize("size", [0.0, -1.0])
def test_a_non_positive_size_is_refused_as_before(size):
    stream = StreamResult(0, "x", records=[
        ChunkRecord(i, 0, 1e5 if i != 2 else size, 15.0, 1.0,
                    TcpInfo(10.0, 1.0, 0.04, 0.05, 1e6), 2.0 * i)
        for i in range(4)
    ])
    predictor = TransmissionTimePredictor(TtpConfig(), seed=0)
    with pytest.raises(ValueError, match="proposed sizes must be positive"):
        reference_datasets([stream], predictor)
    with pytest.raises(ValueError, match="proposed sizes must be positive"):
        build_ttp_datasets([stream], predictor, allow_empty=True)
