"""BBA — buffer-based adaptation (Huang et al., SIGCOMM 2014 [17]).

The scheme maps the current buffer occupancy to a maximum sustainable rate
through a piecewise-linear function with a *reservoir* (below it, always pick
the lowest rung) and a *cushion* (above it, always pick the highest). Puffer
"used the formula in the original paper to choose reservoir values consistent
with a 15-second maximum buffer" (§3.3) and gives BBA the SSIM objective:
pick the highest-SSIM version whose bitrate fits under the rate map
("+SSIM s.t. bitrate < limit", Fig. 5).
"""

from __future__ import annotations

from typing import Sequence

from repro.abr.base import AbrAlgorithm, AbrContext
from repro.fields import positive
from repro.streaming.buffer import MAX_BUFFER_S


class BBA(AbrAlgorithm):
    """Buffer-based control with an SSIM objective.

    Parameters
    ----------
    reservoir_fraction:
        Below this fraction of the buffer cap, stream the lowest rung. The
        original paper's formula scaled to a 15 s buffer puts it at ~25%.
    upper_reservoir_fraction:
        At or above this fraction, stream the highest rung. The default
        gives BBA the aggressive profile it exhibits on Puffer, where it
        delivered the highest average bitrate of all five schemes (Fig. 4).
    """

    name = "bba"

    def __init__(
        self,
        max_buffer_s: float = MAX_BUFFER_S,
        reservoir_fraction: float = 0.25,
        upper_reservoir_fraction: float = 0.75,
    ) -> None:
        positive("BBA", "max_buffer_s", max_buffer_s)
        if not 0.0 < reservoir_fraction < upper_reservoir_fraction <= 1.0:
            raise ValueError("need 0 < reservoir < upper reservoir <= 1")
        self.max_buffer_s = max_buffer_s
        self.reservoir_s = reservoir_fraction * max_buffer_s
        self.upper_reservoir_s = upper_reservoir_fraction * max_buffer_s

    def rate_limit(self, buffer_s: float, min_rate: float, max_rate: float) -> float:
        """The chunk-bitrate ceiling the buffer map allows."""
        if buffer_s <= self.reservoir_s:
            return min_rate
        if buffer_s >= self.upper_reservoir_s:
            return max_rate
        fraction = (buffer_s - self.reservoir_s) / (
            self.upper_reservoir_s - self.reservoir_s
        )
        return min_rate + fraction * (max_rate - min_rate)

    def choose(self, context: AbrContext) -> int:
        menu = context.menu
        return self.pick(context.buffer_s, menu.bitrates, menu.ssims_db)

    def pick(
        self, buffer_s: float, rates: Sequence[float], ssims: Sequence[float]
    ) -> int:
        """The rule on one chunk's rows: the highest-SSIM version whose
        bitrate fits under the buffer map's limit (ties to the lower rung)."""
        limit = self.rate_limit(buffer_s, min(rates), max(rates)) + 1e-9
        best = 0
        best_ssim = float("-inf")
        for k, rate in enumerate(rates):
            if rate <= limit and ssims[k] > best_ssim:
                best = k
                best_ssim = ssims[k]
        return best
