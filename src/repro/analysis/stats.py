"""Weighted means, standard errors, and CCDFs.

§3.4: "We calculate confidence intervals on average SSIM using the formula
for weighted standard error, weighting each stream by its duration."

This module is on the fleet's import path: numpy and the standard library at
module scope, nothing else (DESIGN.md, "Imports at the use site").
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from repro.analysis.bootstrap import ConfidenceInterval

_Z_95 = 1.959963984540054
"""z-quantile for a two-sided 95% normal interval: bit-equal to
``float(scipy.stats.norm.ppf(0.975))`` (pinned in
``tests/analysis/test_stats.py``), so the default level needs no scipy."""


def normal_z(confidence: float) -> float:
    """z such that a standard normal lies in ``[-z, z]`` with probability
    ``confidence``.

    The default level, 0.95, is a constant; any other level imports
    ``scipy.stats`` here, at the call, and asks ``norm.ppf`` —
    ``statistics.NormalDist().inv_cdf`` is one ulp off scipy at 0.975 and
    would change printed intervals.
    """
    if not 0.0 < confidence < 1.0:  # NaN fails both comparisons
        raise ValueError(f"confidence must lie in (0, 1), got {confidence!r}")
    if confidence == 0.95:
        return _Z_95
    from scipy import stats as sps

    return float(sps.norm.ppf(0.5 + confidence / 2.0))


def weighted_mean(values: Sequence[float], weights: Sequence[float]) -> float:
    values = np.asarray(values, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if values.shape != weights.shape or len(values) == 0:
        raise ValueError("values and weights must be equal-length, non-empty")
    if np.any(weights < 0) or weights.sum() <= 0:
        raise ValueError("weights must be non-negative with positive sum")
    return float(np.average(values, weights=weights))


def weighted_standard_error(
    values: Sequence[float], weights: Sequence[float]
) -> float:
    """Standard error of a weighted mean (ratio-estimator form).

    Uses the common design-based approximation
    ``SE^2 = sum(w_i^2 (x_i - x̄_w)^2) / (sum w_i)^2`` with a small-sample
    correction ``n / (n - 1)``.
    """
    values = np.asarray(values, dtype=float)
    weights = np.asarray(weights, dtype=float)
    n = len(values)
    if n < 2:
        raise ValueError("need at least two values for a standard error")
    mean = weighted_mean(values, weights)
    numerator = np.sum(weights**2 * (values - mean) ** 2)
    se2 = numerator / weights.sum() ** 2 * (n / (n - 1))
    return float(np.sqrt(se2))


def weighted_mean_ci(
    values: Sequence[float],
    weights: Sequence[float],
    confidence: float = 0.95,
) -> ConfidenceInterval:
    """Normal-approximation CI around a weighted mean — the paper's SSIM
    interval construction."""
    z = normal_z(confidence)
    mean = weighted_mean(values, weights)
    se = weighted_standard_error(values, weights)
    return ConfidenceInterval(
        point=mean, low=mean - z * se, high=mean + z * se, confidence=confidence
    )


def ccdf(values: Sequence[float]) -> Tuple[np.ndarray, np.ndarray]:
    """Empirical complementary CDF: returns (sorted values, P[X > x]).

    Fig. 10 plots session durations this way on log-log axes.
    """
    values = np.asarray(values, dtype=float)
    if len(values) == 0:
        raise ValueError("need at least one value")
    x = np.sort(values)
    # P[X > x_i] with the convention that the largest value maps to 1/n
    # (plottable on a log axis, unlike 0).
    p = 1.0 - np.arange(1, len(x) + 1) / len(x)
    p[-1] = 1.0 / len(x)
    return x, p


def stream_years(total_seconds: float) -> float:
    """Convert accumulated watch time to the paper's 'stream-years' unit."""
    if total_seconds < 0:
        raise ValueError("time must be non-negative")
    return total_seconds / (365.25 * 24 * 3600.0)
