"""Viewer behaviour: stream types, watch times, and the QoE-sensitive tail.

The paper's watch-time distribution is heavily skewed (Fig. 10: CCDF
spanning minutes to 1,000 minutes) and a large share of streams never
played or were watched under 4 seconds (Fig. A1: of ~233k streams per arm,
~24% never began and ~37% were watched < 4 s — users rapidly changing
channels). Fugu's higher mean time-on-site was "driven solely by the upper
5% tail of viewership duration (sessions lasting more than 2.5 hours)"
(§5.1) — the distributions are nearly identical until then.

:class:`ViewerModel` reproduces those mechanics:

* a stream is a *zap* (brief channel surf) or a *view* (log-normal watch
  time);
* a view reaching the tail threshold keeps extending in blocks, with a
  continuation probability modulated by experienced QoE — so schemes that
  deliver better quality retain exactly the long-tail viewers, as observed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.fields import check, finite, non_negative, positive, probability
from repro.streaming.session import StreamResult


@dataclass(frozen=True)
class ViewerModel:
    """Distribution of viewer behaviour, scaled for simulation budgets.

    The defaults are "bench scale": mean view length of a few minutes with a
    tail threshold of 30 minutes, preserving the paper's shape (log-normal
    body, QoE-sensitive Pareto-like tail) at ~1/5 of its time scale.
    """

    zap_fraction: float = 0.55
    zap_max_s: float = 6.0
    abort_fraction: float = 0.08
    view_log_mean_s: float = np.log(150.0)
    view_log_sigma: float = 1.1
    tail_threshold_s: float = 1800.0
    tail_block_s: float = 450.0
    tail_continue_base: float = 0.80
    qoe_stall_sensitivity: float = 8.0
    qoe_ssim_sensitivity: float = 0.03
    ssim_reference_db: float = 15.0
    max_session_s: float = 4.0 * 3600.0

    KINDS = {
        "zap_fraction": probability, "zap_max_s": positive,
        "abort_fraction": probability, "view_log_mean_s": finite,
        "view_log_sigma": non_negative, "tail_threshold_s": positive,
        "tail_block_s": positive, "tail_continue_base": probability,
        "qoe_stall_sensitivity": finite, "qoe_ssim_sensitivity": finite,
        "ssim_reference_db": finite, "max_session_s": positive,
    }

    def __post_init__(self) -> None:
        check(self)
        if self.tail_continue_base >= 1.0:
            raise ValueError("tail continuation must lie in [0, 1)")

    # ------------------------------------------------------------------
    # Stream-type sampling
    # ------------------------------------------------------------------
    def sample_stream_kind(self, rng: np.random.Generator) -> str:
        """'abort' (leaves before playback), 'zap', or 'view'."""
        u = rng.random()
        if u < self.abort_fraction:
            return "abort"
        if u < self.abort_fraction + self.zap_fraction:
            return "zap"
        return "view"

    def sample_watch_time(self, kind: str, rng: np.random.Generator) -> float:
        if kind == "abort":
            # Leaves almost immediately — typically before the first chunk
            # arrives, producing a "did not begin playing" exclusion.
            return float(rng.uniform(0.02, 0.25))
        if kind == "zap":
            return float(rng.uniform(0.3, self.zap_max_s))
        if kind == "view":
            return float(
                np.exp(rng.normal(self.view_log_mean_s, self.view_log_sigma))
            )
        raise ValueError(f"unknown stream kind {kind!r}")

    # ------------------------------------------------------------------
    # QoE-sensitive tail (Fig. 10 / §5.1)
    # ------------------------------------------------------------------
    def continue_probability(self, result: StreamResult) -> float:
        """Probability of extending one more tail block, given experienced
        QoE so far."""
        p = self.tail_continue_base
        if result.watch_time > 0:
            p -= self.qoe_stall_sensitivity * result.stall_ratio
        mean_ssim = result.mean_ssim_db
        if not np.isnan(mean_ssim):
            p += self.qoe_ssim_sensitivity * (mean_ssim - self.ssim_reference_db)
        return float(np.clip(p, 0.0, 0.97))

    def make_extension_hook(self, rng: np.random.Generator):
        """Build the per-stream extension hook for the simulator."""

        def hook(t: float, result: StreamResult) -> float:
            if t < self.tail_threshold_s or t >= self.max_session_s:
                return 0.0
            if rng.random() < self.continue_probability(result):
                return min(self.tail_block_s, self.max_session_s - t)
            return 0.0

        return hook


PAPER_SCALE_VIEWER = ViewerModel(
    view_log_mean_s=np.log(480.0),
    view_log_sigma=1.4,
    tail_threshold_s=2.5 * 3600.0,
    tail_block_s=1200.0,
    max_session_s=16.0 * 3600.0,
)
"""Viewer model at the paper's actual time scale (mean session ~30 min,
tail threshold 2.5 h). Expensive to simulate; used by paper-scale runs."""
