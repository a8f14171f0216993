"""Rate-based ABR baseline.

The classic "match the video bitrate to the network throughput" family
(§2: FESTIVE and friends [18, 21, 25]): estimate throughput with the
harmonic mean of recent samples and pick the highest rung whose bitrate
fits under a safety-discounted estimate. Not part of the primary experiment
but a useful reference point and regression anchor for the test suite.
"""

from __future__ import annotations

from typing import Sequence

from repro.abr.base import AbrAlgorithm, AbrContext, harmonic_mean
from repro.fields import positive, whole_positive

DEFAULT_STARTUP_THROUGHPUT_BPS = 1.3e6
"""Conservative assumption before any throughput sample exists."""


class RateBased(AbrAlgorithm):
    """Highest rung whose actual chunk bitrate fits the predicted rate."""

    name = "rate_based"

    def __init__(
        self,
        safety_factor: float = 0.85,
        window: int = 5,
        startup_throughput_bps: float = DEFAULT_STARTUP_THROUGHPUT_BPS,
    ) -> None:
        if not 0.0 < safety_factor <= 1.0:
            raise ValueError("safety factor must lie in (0, 1]")
        positive("RateBased", "startup_throughput_bps", startup_throughput_bps)
        self.safety_factor = safety_factor
        self.window = whole_positive("RateBased", "window", window)
        self.startup_throughput_bps = startup_throughput_bps

    def choose(self, context: AbrContext) -> int:
        recent = context.history[-self.window:]
        return self.pick(
            context.menu.bitrates, [r.observed_throughput_bps for r in recent]
        )

    def pick(self, rates: Sequence[float], throughputs: Sequence[float]) -> int:
        """The rule on one chunk's bitrate row and the stream's observed
        throughputs, oldest first: the highest rung under the budget."""
        recent = throughputs[-self.window:]
        if recent:
            estimate = harmonic_mean(recent)
        else:
            estimate = self.startup_throughput_bps
        budget = estimate * self.safety_factor
        choice = 0
        for k, rate in enumerate(rates):
            if rate <= budget:
                choice = k
        return choice
