"""Training-set featurization as it was before one pass per stream, frozen.

``tests/core/test_featurize_differential.py`` holds the live
``build_ttp_datasets`` to this function bit for bit. It is the per-record
procedure written out in full: for every record of every stream, the
feature matrix of its decision (history of the preceding records, its
``tcp_info`` snapshot, the size of each record up to the horizon) built
from scratch and masked, and one label per (record, step). Only the
labelling (``predictor.label_for``) and the mask
(``predictor.config.feature_mask()``) come from ``src/``; the feature
arithmetic is spelled out here, so a later change to ``src/`` cannot move
the reference along with the code under test.
"""

import numpy as np

HISTORY_LEN = 8
FEATURE_DIM = 2 * HISTORY_LEN + 5 + 1


def _scale_size(size_bytes):
    return np.log1p(np.asarray(size_bytes, dtype=float) / 1e5)


def _scale_time(seconds):
    return np.log1p(np.asarray(seconds, dtype=float))


def reference_feature_matrix(history, info, sizes_bytes):
    """``make_feature_matrix`` of one decision: the history and TCP blocks
    built once, then one row per candidate size."""
    sizes_bytes = np.asarray(sizes_bytes, dtype=float)
    if (sizes_bytes <= 0).any():
        raise ValueError("proposed sizes must be positive")
    recent = history[-HISTORY_LEN:]
    block = np.zeros(2 * HISTORY_LEN)
    if recent:
        block[HISTORY_LEN - len(recent) : HISTORY_LEN] = _scale_size(
            [record.size_bytes for record in recent]
        )
        block[2 * HISTORY_LEN - len(recent) :] = _scale_time(
            [record.transmission_time for record in recent]
        )
    tcp = np.log1p(
        [
            info.cwnd / 10.0,
            info.in_flight / 10.0,
            info.min_rtt / 0.1,
            info.rtt / 0.1,
            info.delivery_rate / 1e5,
        ]
    )
    matrix = np.empty((len(sizes_bytes), FEATURE_DIM))
    matrix[:, : FEATURE_DIM - 1] = np.concatenate([block, tcp])
    matrix[:, FEATURE_DIM - 1] = _scale_size(sizes_bytes)
    return matrix


def reference_datasets(streams, predictor, sample_weight=1.0):
    """Per horizon step ``(features, targets, weights)``, or ``None`` for a
    step without examples."""
    horizon = predictor.config.horizon
    mask = predictor.config.feature_mask()
    features = [[] for _ in range(horizon)]
    labels = [[] for _ in range(horizon)]
    for stream in streams:
        records = stream.records
        for i in range(len(records)):
            history = records[max(i - HISTORY_LEN, 0) : i]
            info = records[i].info_at_send
            max_k = min(horizon, len(records) - i)
            sizes = np.array([records[i + k].size_bytes for k in range(max_k)])
            rows = reference_feature_matrix(history, info, sizes) * mask
            for k in range(max_k):
                features[k].append(rows[k])
                labels[k].append(predictor.label_for(records[i + k]))
    return [
        (
            np.vstack(features[k]),
            np.asarray(labels[k], dtype=int),
            np.full(len(labels[k]), float(sample_weight)),
        )
        if features[k]
        else None
        for k in range(horizon)
    ]
