"""The decide step as it was before the horizon-wide model call, frozen.

``tests/core/test_decide_differential.py`` holds the live planner and TTP to
these functions bit for bit. They are the step-wise protocol (one model call
per horizon step, the history row rebuilt on every call, the bin centres
tiled per rung, the DP geometry recomputed per rung and per step) written
out in full, so a later change to ``src/`` cannot move the reference along
with the code under test. The network pass is ``MLP.forward`` — the
training pass, which the old ``predict_proba`` was.
"""

import numpy as np

from repro.core.features import (
    CWND_LOG_SCALE,
    DELIVERY_RATE_LOG_SCALE,
    HISTORY_LEN,
    RTT_LOG_SCALE,
    SIZE_LOG_SCALE,
)
from repro.core.controller import TimeDistribution
from repro.learn.losses import softmax


def _scale_size(size_bytes):
    return np.log1p(np.asarray(size_bytes, dtype=float) / SIZE_LOG_SCALE)


def _scale_time(seconds):
    return np.log1p(np.asarray(seconds, dtype=float))


def reference_feature_matrix(history, info, sizes_bytes):
    """The old ``make_feature_matrix``: scalar ``log1p`` per record and per
    TCP field, ``np.tile`` of the shared part."""
    recent = list(history)[-HISTORY_LEN:]
    sizes = np.zeros(HISTORY_LEN)
    times = np.zeros(HISTORY_LEN)
    offset = HISTORY_LEN - len(recent)
    for i, record in enumerate(recent):
        sizes[offset + i] = _scale_size(record.size_bytes)
        times[offset + i] = _scale_time(record.transmission_time)
    tcp = np.array(
        [
            np.log1p(info.cwnd / CWND_LOG_SCALE),
            np.log1p(info.in_flight / CWND_LOG_SCALE),
            np.log1p(info.min_rtt / RTT_LOG_SCALE),
            np.log1p(info.rtt / RTT_LOG_SCALE),
            np.log1p(info.delivery_rate / DELIVERY_RATE_LOG_SCALE),
        ]
    )
    base = np.concatenate([sizes, times, tcp])
    matrix = np.tile(base, (len(sizes_bytes), 1))
    return np.concatenate(
        [matrix, np.asarray(_scale_size(sizes_bytes))[:, None]], axis=1
    )


def reference_distribution(ttp, history, info, sizes_bytes, step):
    """The old ``TransmissionTimePredictor.distribution``: always
    ``(n_rungs, k)`` times."""
    sizes_bytes = np.asarray(sizes_bytes, dtype=float)
    features = reference_feature_matrix(history, info, sizes_bytes) * ttp._mask
    probs = softmax(ttp.models[step].forward(np.atleast_2d(features)))
    if ttp.config.predict_throughput:
        times = sizes_bytes[:, None] * 8.0 / ttp._tput_centers[None, :]
    else:
        times = np.tile(ttp._time_centers, (len(sizes_bytes), 1))
    if ttp.config.point_estimate:
        best = probs.argmax(axis=1)
        times = times[np.arange(len(sizes_bytes)), best][:, None]
        probs = np.ones_like(times)
    return TimeDistribution(times=times, probs=probs)


def reference_scores(controller, context, step_model, steps):
    """The old ``ValueIterationController._plan`` up to its ``argmax``:
    ``step_model(context, step, sizes) -> TimeDistribution`` is called once
    per horizon step, last step first."""
    menus = context.lookahead[:steps]
    grid = controller._grid
    n_bins = len(grid)
    qoe = controller.qoe

    def bin_index(buffer_s):
        idx = np.rint(buffer_s / controller.buffer_bin_s).astype(int)
        return np.clip(idx, 0, n_bins - 1)

    value = None
    first_step_ev = None
    for step in range(steps - 1, -1, -1):
        menu = menus[step]
        n_rungs = len(menu)
        sizes = np.asarray(tuple(v.size_bytes for v in menu))
        qualities = np.asarray(tuple(v.ssim_db for v in menu))
        duration = menu.duration
        dist = step_model(context, step, sizes)
        times = dist.times
        probs = dist.probs
        assert times.shape == probs.shape == (n_rungs, probs.shape[1])

        t = times[:, None, :]
        b = grid[None, :, None]
        stall = np.maximum(t - b, 0.0)
        next_buffer = np.minimum(
            np.maximum(b - t, 0.0) + duration, controller.max_buffer_s
        )
        immediate = (
            qoe.quality_weight * qualities[:, None, None]
            - qoe.stall_weight * stall
        )
        if value is not None:
            nb_idx = bin_index(next_buffer)
            cont = value[nb_idx, np.arange(n_rungs)[:, None, None]]
            immediate = immediate + cont
        ev = (immediate * probs[:, None, :]).sum(axis=2)

        if step == 0:
            first_step_ev = ev
            break

        prev_menu = menus[step - 1]
        prev_qualities = np.asarray(tuple(v.ssim_db for v in prev_menu))
        penalty = qoe.variation_weight * np.abs(
            qualities[:, None] - prev_qualities[None, :]
        )
        candidate = ev[:, :, None] - penalty[:, None, :]
        value = candidate.max(axis=0).reshape(n_bins, len(prev_menu))

    qualities0 = np.asarray(tuple(v.ssim_db for v in menus[0]))
    b0 = bin_index(np.asarray([context.buffer_s]))[0]
    scores = first_step_ev[:, b0].copy()
    if context.last_ssim_db is not None:
        scores -= qoe.variation_weight * np.abs(
            qualities0 - context.last_ssim_db
        )
    return scores
