"""Statistical detectability analysis (§3.4 / §5.3).

The paper's uncertainty claims, reproduced as computations:

* with ~1.75 stream-years per scheme, the 95% CI on a scheme's stall ratio
  is ±10–17% of its mean — so "even with a year of accumulated experience
  per scheme, a 20% improvement in rebuffering ratio would be statistically
  indistinguishable";
* "it takes about 2 stream-years of data to reliably distinguish two ABR
  schemes whose innate 'true' performance differs by 15%".

:func:`detectability_curve` Monte-Carlos that question directly: draw two
synthetic stream populations whose true stall ratios differ by a given
factor, accumulate increasing amounts of data, and measure how often the
bootstrap CIs separate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.analysis.bootstrap import aggregate_stall_ratio
from repro.fields import check, finite, non_negative, positive, probability


@dataclass(frozen=True)
class StreamPopulation:
    """Generative model of per-stream (watch time, stall time) pairs with
    the heavy-tailed structure the paper observes: log-normal watch times,
    rare stalls (a few % of streams), and skewed stall magnitudes."""

    stall_probability: float = 0.04
    mean_stall_ratio_when_stalled: float = 0.08
    watch_log_mean: float = np.log(300.0)
    watch_log_sigma: float = 1.3

    KINDS = {
        "stall_probability": probability,
        "mean_stall_ratio_when_stalled": positive, "watch_log_mean": finite,
        "watch_log_sigma": non_negative,
    }

    def __post_init__(self) -> None:
        check(self)
        if self.stall_probability <= 0.0:
            raise ValueError("stall probability must lie in (0, 1]")

    @property
    def true_stall_ratio(self) -> float:
        """Expected aggregate stall ratio (stall time scales with watch
        time in this model, so the ratio is probability x magnitude)."""
        return self.stall_probability * self.mean_stall_ratio_when_stalled

    def scaled(self, factor: float) -> "StreamPopulation":
        """A population whose true stall ratio is ``factor`` x this one's."""
        if factor <= 0:
            raise ValueError("factor must be positive")
        return StreamPopulation(
            stall_probability=self.stall_probability,
            mean_stall_ratio_when_stalled=(
                self.mean_stall_ratio_when_stalled * factor
            ),
            watch_log_mean=self.watch_log_mean,
            watch_log_sigma=self.watch_log_sigma,
        )

    def sample(
        self, n_streams: int, rng: np.random.Generator
    ) -> "tuple[np.ndarray, np.ndarray]":
        """Draw (watch_times, stall_times) for ``n_streams`` streams."""
        watch = np.exp(
            rng.normal(self.watch_log_mean, self.watch_log_sigma, n_streams)
        )
        stalled = rng.random(n_streams) < self.stall_probability
        # Stall magnitude is itself skewed (exponential around the mean).
        magnitude = rng.exponential(
            self.mean_stall_ratio_when_stalled, n_streams
        )
        stall = np.where(stalled, watch * magnitude, 0.0)
        return watch, stall


@dataclass(frozen=True)
class DetectabilityPoint:
    """Outcome of the Monte Carlo at one data volume."""

    stream_years_per_scheme: float
    n_streams_per_scheme: int
    detection_rate: float
    ci_half_width_fraction: float


def stall_ratio_ci_width(
    watch: np.ndarray,
    stall: np.ndarray,
    n_resamples: int = 300,
    rng: "np.random.Generator | None" = None,
) -> "tuple[float, float, float]":
    """(point, low, high) bootstrap interval on an aggregate stall ratio."""
    rng = rng if rng is not None else np.random.default_rng(0)
    n = len(watch)
    estimates = np.empty(n_resamples)
    for b in range(n_resamples):
        idx = rng.integers(0, n, size=n)
        estimates[b] = aggregate_stall_ratio(stall[idx], watch[idx])
    return (
        aggregate_stall_ratio(stall, watch),
        float(np.quantile(estimates, 0.025)),
        float(np.quantile(estimates, 0.975)),
    )


def detectability_curve(
    improvement: float = 0.15,
    stream_counts: Sequence[int] = (250, 1000, 4000, 16000),
    population: StreamPopulation = StreamPopulation(),
    n_trials: int = 40,
    n_resamples: int = 200,
    seed: int = 0,
) -> List[DetectabilityPoint]:
    """How often do two schemes' 95% CIs separate, versus data volume?

    ``improvement`` is the relative difference in true stall ratio between
    the two arms (0.15 = 15% better). Detection means the bootstrap CIs do
    not overlap.
    """
    if not 0.0 < improvement < 1.0:
        raise ValueError("improvement must lie in (0, 1)")
    rng = np.random.default_rng(seed)
    baseline = population
    improved = population.scaled(1.0 - improvement)
    points: List[DetectabilityPoint] = []
    for n_streams in stream_counts:
        detections = 0
        half_widths: List[float] = []
        total_watch = 0.0
        for _ in range(n_trials):
            w_a, s_a = baseline.sample(n_streams, rng)
            w_b, s_b = improved.sample(n_streams, rng)
            point_a, lo_a, hi_a = stall_ratio_ci_width(
                w_a, s_a, n_resamples, rng
            )
            point_b, lo_b, hi_b = stall_ratio_ci_width(
                w_b, s_b, n_resamples, rng
            )
            if hi_b < lo_a or hi_a < lo_b:
                detections += 1
            if point_a > 0:
                half_widths.append((hi_a - lo_a) / 2.0 / point_a)
            total_watch += w_a.sum()
        points.append(
            DetectabilityPoint(
                stream_years_per_scheme=(
                    total_watch / n_trials / (365.25 * 24 * 3600.0)
                ),
                n_streams_per_scheme=n_streams,
                detection_rate=detections / n_trials,
                ci_half_width_fraction=float(np.mean(half_widths)),
            )
        )
    return points
