"""Figure-data builders: one function per paper figure, returning plain
JSON-serializable dictionaries.

The benchmarks assert on these structures and the ``examples/make_figures``
script dumps them to disk, so every figure's underlying series is available
for external plotting without re-running the simulations.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List

import numpy as np

from repro.analysis.stats import ccdf
from repro.analysis.summary import split_slow_paths, summarize_scheme
from repro.experiment.consort import EXCLUDED

if TYPE_CHECKING:
    from repro.experiment.harness import TrialResult


def fig1_table(trial: "TrialResult", n_resamples: int = 400) -> Dict:
    """The primary-results table as data."""
    rows = {}
    for name in trial.scheme_names:
        streams = trial.streams_for(name)
        if not streams:
            continue
        s = summarize_scheme(
            name, streams, trial.session_durations_for(name),
            n_resamples=n_resamples,
        )
        rows[name] = {
            "time_stalled_percent": s.stall_percent,
            "stall_ci": [s.stall_ratio.low * 100, s.stall_ratio.high * 100],
            "mean_ssim_db": s.mean_ssim_db.point,
            "ssim_ci": [s.mean_ssim_db.low, s.mean_ssim_db.high],
            "ssim_variation_db": s.ssim_variation_db,
            "mean_duration_min": (
                s.mean_session_duration_s.point / 60.0
                if s.mean_session_duration_s
                else None
            ),
            "n_streams": s.n_streams,
            "stream_years": s.stream_years,
        }
    return rows


def fig4_points(trial: "TrialResult") -> Dict[str, Dict[str, float]]:
    """SSIM vs bitrate scatter points."""
    points = {}
    for name in trial.scheme_names:
        streams = trial.streams_for(name)
        if not streams:
            continue
        s = summarize_scheme(name, streams, n_resamples=100)
        points[name] = {
            "bitrate_mbps": s.mean_bitrate_bps / 1e6,
            "ssim_db": s.mean_ssim_db.point,
        }
    return points


def fig8_panels(trial: "TrialResult", n_resamples: int = 400) -> Dict:
    """The two SSIM-vs-stall panels, with CI extents."""
    panels: Dict[str, Dict] = {"all": {}, "slow": {}}
    for name in trial.scheme_names:
        streams = trial.streams_for(name)
        if not streams:
            continue
        s = summarize_scheme(name, streams, n_resamples=n_resamples)
        panels["all"][name] = _scatter_entry(s)
        slow, _ = split_slow_paths(streams)
        if len(slow) >= 10:
            panels["slow"][name] = _scatter_entry(
                summarize_scheme(name, slow, n_resamples=n_resamples)
            )
    return panels


def _scatter_entry(s) -> Dict:
    return {
        "stall_percent": s.stall_percent,
        "stall_ci": [s.stall_ratio.low * 100, s.stall_ratio.high * 100],
        "ssim_db": s.mean_ssim_db.point,
        "ssim_ci": [s.mean_ssim_db.low, s.mean_ssim_db.high],
        "n_streams": s.n_streams,
    }


def fig9_points(trial: "TrialResult") -> Dict[str, Dict[str, float]]:
    """Cold start: startup delay vs first-chunk SSIM."""
    points = {}
    for name in trial.scheme_names:
        streams = [s for s in trial.streams_for(name) if s.records]
        if not streams:
            continue
        points[name] = {
            "startup_delay_s": float(
                np.mean([s.startup_delay for s in streams])
            ),
            "first_chunk_ssim_db": float(
                np.mean([s.first_chunk_ssim_db for s in streams])
            ),
        }
    return points


def fig10_ccdfs(trial: "TrialResult") -> Dict[str, Dict[str, List[float]]]:
    """Session-duration CCDF per scheme (minutes)."""
    curves = {}
    for name in trial.scheme_names:
        durations = trial.session_durations_for(name)
        if len(durations) < 2:
            continue
        x, p = ccdf([d / 60.0 for d in durations])
        curves[name] = {"minutes": x.tolist(), "survival": p.tolist()}
    return curves


def consort_flow_data(trial: "TrialResult") -> Dict:
    """Fig. A1 counts."""
    flow = trial.consort
    return {
        "sessions_randomized": flow.sessions_randomized,
        "streams_total": flow.streams_total,
        "streams_considered": flow.streams_considered,
        "considered_watch_years": flow.considered_watch_years,
        "arms": {
            name: {
                "sessions": arm.sessions_assigned,
                "streams": arm.streams_assigned,
                **{category: getattr(arm, category) for category in EXCLUDED},
                "truncated": arm.truncated_loss_of_contact,
                "considered": arm.considered,
            }
            for name, arm in flow.arms.items()
        },
    }


def all_figures(trial: "TrialResult") -> Dict[str, Dict]:
    """Every trial-derived figure, keyed by its paper number."""
    return {
        "fig1": fig1_table(trial),
        "fig4": fig4_points(trial),
        "fig8": fig8_panels(trial),
        "fig9": fig9_points(trial),
        "fig10": fig10_ccdfs(trial),
        "figA1": consort_flow_data(trial),
    }
