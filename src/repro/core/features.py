"""TTP feature construction (§4.2).

Each TTP network takes as input a vector of:

1. sizes of the past ``t = 8`` chunks,
2. transmission times of the past 8 chunks,
3. internal TCP statistics (the ``tcp_info`` fields Puffer logs: cwnd,
   packets in flight, min RTT, smoothed RTT, delivery rate),
4. the size of the chunk to be transmitted.

Missing history at stream start is zero-padded — which is precisely why the
TCP statistics give Fugu its cold-start advantage (Fig. 9): on the first
chunk they are the only informative features.

The module also defines the discretization of transmission times into the
paper's 21 bins: [0, 0.25), [0.25, 0.75), …, [9.75, ∞) (§4.5).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.net.tcp import TcpInfo

if TYPE_CHECKING:  # typing only; avoids a circular import with repro.abr
    from repro.abr.base import ChunkRecord

HISTORY_LEN = 8
"""Past chunks in the input vector (t = 8, §4.5)."""

N_TCP_FEATURES = 5
FEATURE_DIM = 2 * HISTORY_LEN + N_TCP_FEATURES + 1

# Feature scaling. Sizes, times, windows, and rates are all roughly
# log-normal across the deployment (a 0.09 Mbit/s fade and a 90 Mbit/s
# fiber path must both be resolvable), so rate-like quantities enter the
# network through log1p compression rather than linear division.
SIZE_LOG_SCALE = 1e5  # bytes; log1p(size / 1e5)
CWND_LOG_SCALE = 10.0  # segments; log1p(cwnd / 10)
RTT_LOG_SCALE = 0.1  # seconds; log1p(rtt / 0.1)
DELIVERY_RATE_LOG_SCALE = 1e5  # bits/s; log1p(rate / 1e5)


def _scale_size(size_bytes: "np.ndarray | float") -> "np.ndarray | float":
    return np.log1p(np.asarray(size_bytes, dtype=float) / SIZE_LOG_SCALE)


def _scale_time(seconds: "np.ndarray | float") -> "np.ndarray | float":
    return np.log1p(np.asarray(seconds, dtype=float))

N_TIME_BINS = 21
TIME_BIN_EDGES = np.concatenate(([0.0, 0.25], np.arange(0.75, 10.0, 0.5)))
"""Edges of the 21 bins; the last bin is [9.75, inf)."""

_TAIL_BIN_CENTER = 16.0
"""Representative time for the open-ended [9.75, ∞) bin. Transmission
times landing there are heavy-tailed (deep fades), so the planner uses a
value well beyond the bin edge; this is what makes small tail probabilities
matter against the µ=100 stall weight."""


def time_bin_index(transmission_time: float) -> int:
    """Discretize a transmission time into its bin index (0..20)."""
    if transmission_time < 0:
        raise ValueError("transmission time must be non-negative")
    if transmission_time < 0.25:
        return 0
    if transmission_time >= 9.75:
        return N_TIME_BINS - 1
    return int((transmission_time - 0.25) // 0.5) + 1


def time_bin_centers() -> np.ndarray:
    """Representative transmission time of each bin (used by the planner
    when taking expectations over the TTP's output distribution)."""
    centers = np.empty(N_TIME_BINS)
    centers[0] = 0.125
    centers[1:-1] = 0.5 * np.arange(1, N_TIME_BINS - 1)
    centers[-1] = _TAIL_BIN_CENTER
    return centers


_TCP_SCALES = np.array(
    [CWND_LOG_SCALE, CWND_LOG_SCALE, RTT_LOG_SCALE, RTT_LOG_SCALE,
     DELIVERY_RATE_LOG_SCALE]
)


def tcp_features(info: TcpInfo) -> np.ndarray:
    """Scaled ``tcp_info`` feature block."""
    return np.log1p(
        np.array(
            [info.cwnd, info.in_flight, info.min_rtt, info.rtt, info.delivery_rate]
        )
        / _TCP_SCALES
    )


def chunk_feature_rows(
    sizes_bytes: np.ndarray,
    seconds: np.ndarray,
    tcp: np.ndarray,
    position: np.ndarray,
) -> "tuple[np.ndarray, np.ndarray]":
    """Feature rows of many chunks at once: chunk ``j`` was sent with
    ``tcp[j]`` (the five ``tcp_info`` fields in :func:`tcp_features`'
    order) and is chunk ``position[j]`` of its stream, whose earlier chunks
    are rows ``j - position[j]`` to ``j - 1``. Returns the ``(N,
    FEATURE_DIM)`` matrix with each row's history and TCP blocks — as
    :func:`make_feature_matrix` builds them for that chunk's decision — and
    a zero proposed-size column, and the scaled sizes that column takes.

    Each scaling runs once per chunk, over one contiguous array, with the
    same elementwise operations as the per-decision blocks; a row's history
    is then copied from its predecessors' values."""
    size_scaled = _scale_size(sizes_bytes)
    time_scaled = _scale_time(seconds)
    matrix = np.zeros((len(position), FEATURE_DIM))
    for lag in range(1, HISTORY_LEN + 1):
        rows = np.flatnonzero(position >= lag)
        matrix[rows, HISTORY_LEN - lag] = size_scaled[rows - lag]
        matrix[rows, 2 * HISTORY_LEN - lag] = time_scaled[rows - lag]
    matrix[:, TCP_SLICE] = np.log1p(tcp / _TCP_SCALES)
    return matrix, size_scaled


def history_features(history: Sequence[ChunkRecord]) -> np.ndarray:
    """Past-chunk feature block: 8 sizes then 8 transmission times, oldest
    first, zero-padded on the left when the stream is young."""
    # Slice, never copy: the history is the whole stream so far, and this
    # runs on every decision.
    recent = history[-HISTORY_LEN:]
    block = np.zeros(2 * HISTORY_LEN)
    if recent:
        block[HISTORY_LEN - len(recent) : HISTORY_LEN] = _scale_size(
            [record.size_bytes for record in recent]
        )
        block[2 * HISTORY_LEN - len(recent) :] = _scale_time(
            [record.transmission_time for record in recent]
        )
    return block


def make_features(
    history: Sequence[ChunkRecord],
    info: TcpInfo,
    proposed_size_bytes: float,
) -> np.ndarray:
    """Full 22-dimensional TTP input vector for one candidate chunk."""
    if proposed_size_bytes <= 0:
        raise ValueError("proposed size must be positive")
    return np.concatenate(
        [
            history_features(history),
            tcp_features(info),
            [_scale_size(proposed_size_bytes)],
        ]
    )


def make_feature_matrix(
    history: Sequence[ChunkRecord],
    info: TcpInfo,
    sizes_bytes: np.ndarray,
) -> np.ndarray:
    """Feature matrix for several candidate sizes sharing one history —
    one TTP forward pass evaluates the whole ladder."""
    sizes_bytes = np.asarray(sizes_bytes, dtype=float)
    if (sizes_bytes <= 0).any():
        raise ValueError("proposed sizes must be positive")
    # The history and TCP blocks are the same in every row and built once;
    # only the proposed-size column differs.
    matrix = np.empty((len(sizes_bytes), FEATURE_DIM))
    matrix[:, :PROPOSED_SIZE_INDEX] = np.concatenate(
        [history_features(history), tcp_features(info)]
    )
    matrix[:, PROPOSED_SIZE_INDEX] = _scale_size(sizes_bytes)
    return matrix


# Indices of feature groups, for the ablation study (§4.6).
SIZE_HISTORY_SLICE = slice(0, HISTORY_LEN)
TIME_HISTORY_SLICE = slice(HISTORY_LEN, 2 * HISTORY_LEN)
TCP_SLICE = slice(2 * HISTORY_LEN, 2 * HISTORY_LEN + N_TCP_FEATURES)
PROPOSED_SIZE_INDEX = FEATURE_DIM - 1
TCP_FEATURE_INDEX = {
    "cwnd": 2 * HISTORY_LEN + 0,
    "in_flight": 2 * HISTORY_LEN + 1,
    "min_rtt": 2 * HISTORY_LEN + 2,
    "rtt": 2 * HISTORY_LEN + 3,
    "delivery_rate": 2 * HISTORY_LEN + 4,
}
