"""Synthetic FCC-broadband-style traces.

Pensieve's evaluation (and the paper's emulation environment, §5.2) replays
traces derived from the FCC "Measuring Broadband America" dataset, filtered
to mean throughputs in roughly the 0.2–6 Mbit/s range, with a 12 Mbit/s cap.
Compared with the throughput processes Puffer observes in deployment, these
traces are *tamer*: fixed-line broadband sampled over short windows shows
moderate variability and essentially no deep multi-second outages.

That difference is the mechanism behind Fig. 11 — algorithms (and a Fugu
variant) trained against FCC traces meet conditions in deployment that the
training distribution never contained. ``generate_fcc_trace`` intentionally
produces the tamer distribution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.fields import check, non_negative, positive, probability
from repro.net.link import TraceLink


@dataclass(frozen=True)
class FccTraceConfig:
    """Knobs for the FCC-style synthetic trace generator.

    Defaults follow Pensieve's preprocessing of the FCC dataset: traces with
    mean throughput between ``min_mean_bps`` and ``max_mean_bps``, capped at
    ``cap_bps`` (the 12 Mbit/s mahimahi uplink/downlink cap), with mild
    within-trace variation and no outages.
    """

    duration_s: int = 320
    epoch_s: float = 1.0
    min_mean_bps: float = 0.2e6
    max_mean_bps: float = 6.0e6
    cap_bps: float = 12.0e6
    within_trace_sigma: float = 0.22
    reversion: float = 0.25

    KINDS = {
        "duration_s": positive, "epoch_s": positive, "min_mean_bps": positive,
        "max_mean_bps": positive, "cap_bps": positive,
        "within_trace_sigma": non_negative, "reversion": probability,
    }

    def __post_init__(self) -> None:
        check(self)
        if not self.min_mean_bps <= self.max_mean_bps <= self.cap_bps:
            raise ValueError("need 0 < min_mean <= max_mean <= cap")
        if self.reversion <= 0.0:
            raise ValueError("reversion must lie in (0, 1]")


def generate_fcc_trace(
    config: FccTraceConfig = FccTraceConfig(), seed: int = 0
) -> List[float]:
    """Generate one trace: per-epoch throughput in bits/s.

    The trace-level mean is drawn log-uniformly over the configured band
    (the FCC dataset spans DSL to cable tiers) and the within-trace process
    is a mean-reverting log-normal with small variance.
    """
    rng = np.random.default_rng(seed)
    mean_bps = float(
        np.exp(
            rng.uniform(
                np.log(config.min_mean_bps), np.log(config.max_mean_bps)
            )
        )
    )
    n_epochs = int(config.duration_s / config.epoch_s)
    sigma = config.within_trace_sigma
    innovation = sigma * np.sqrt(1.0 - (1.0 - config.reversion) ** 2)
    log_dev = rng.normal(0.0, sigma)
    rates: List[float] = []
    for _ in range(n_epochs):
        log_dev = (1.0 - config.reversion) * log_dev + rng.normal(0.0, innovation)
        rate = mean_bps * float(np.exp(log_dev))
        rates.append(float(min(rate, config.cap_bps)))
    return rates


def generate_fcc_dataset(
    n_traces: int, config: FccTraceConfig = FccTraceConfig(), seed: int = 0
) -> List[List[float]]:
    """Generate a dataset of traces (one seed stream, reproducible)."""
    if n_traces <= 0:
        raise ValueError("n_traces must be positive")
    return [
        # repro: allow-SEED001(injective in i for a fixed corpus seed; reseeding regenerates the FCC corpus and invalidates every trained-model digest)
        generate_fcc_trace(config, seed=seed * 1_000_003 + i)
        for i in range(n_traces)
    ]


def fcc_trace_link(
    config: FccTraceConfig = FccTraceConfig(), seed: int = 0, loop: bool = True
) -> TraceLink:
    """Build a looping :class:`TraceLink` from one synthetic FCC trace."""
    return TraceLink(generate_fcc_trace(config, seed), epoch=config.epoch_s, loop=loop)
