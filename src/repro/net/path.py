"""Network paths and the client-population model.

Puffer's clients connect over tens of thousands of distinct wide-area paths.
:class:`PopulationModel` captures the population-level facts the paper's
statistics depend on:

* per-session mean throughput is heavy-tailed (log-normal across sessions),
  calibrated so that "slow" paths (mean delivery rate below 6 Mbit/s, the
  Fig. 8 cut) account for roughly 16% of viewing time;
* RTT is negatively correlated with throughput (cellular and long paths are
  both slower and farther), which is what lets Fugu bootstrap cold-start
  decisions from the handshake RTT (Fig. 9);
* within a session, throughput evolves as the heavy-tailed continuous
  process of :class:`repro.net.link.HeavyTailLink` (Fig. 2b).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from repro.fields import check, finite, non_negative, positive, probability
from repro.net.cc.base import CongestionControl
from repro.net.cc.bbr import BbrLike
from repro.net.cc.cubic import CubicLike
from repro.net.link import HeavyTailLink, LinkModel
from repro.net.tcp import TcpConnection

SLOW_PATH_THRESHOLD_BPS = 6e6
"""Fig. 8's definition of a "slow" network path."""


@dataclass
class NetworkPath:
    """One client's path: a capacity process plus propagation delay."""

    link: LinkModel
    base_rtt: float
    cc_name: str = "bbr"

    KINDS = {"base_rtt": positive}

    def __post_init__(self) -> None:
        check(self)
        if self.cc_name not in ("bbr", "cubic"):
            raise ValueError(f"unknown congestion control {self.cc_name!r}")

    def make_cc(self) -> CongestionControl:
        if self.cc_name == "bbr":
            return BbrLike()
        return CubicLike()

    def connect(self, seed: "int | tuple" = 0) -> TcpConnection:
        """Open a fresh TCP connection over this path.

        ``seed`` feeds the connection's loss process; any value accepted by
        :func:`numpy.random.default_rng` works (the trial harness passes an
        entropy tuple folding the trial seed and session id together).
        """
        return TcpConnection(
            self.link,
            self.base_rtt,
            cc=self.make_cc(),
            loss_rng=np.random.default_rng(seed),
        )


@dataclass
class PopulationModel:
    """Distribution over client paths.

    Parameters
    ----------
    median_throughput_bps:
        Median of the per-session mean-throughput distribution.
    log_sigma:
        Std of log-throughput across sessions. The default ≈1.0 puts ~16%
        of sessions below 6 Mbit/s when the median is 16 Mbit/s.
    median_rtt:
        Median propagation RTT across sessions.
    rtt_log_sigma:
        Residual spread of log-RTT.
    rtt_throughput_exponent:
        Strength of the negative RTT/throughput correlation:
        ``rtt ∝ (median_tput / tput) ** exponent``.
    cubic_fraction:
        Fraction of sessions served over the CUBIC daemon (Fig. A1 shows a
        minority of streams were assigned CUBIC; the primary analysis is
        BBR-only, so the default is 0).
    """

    median_throughput_bps: float = 16e6
    log_sigma: float = 1.0
    median_rtt: float = 0.045
    rtt_log_sigma: float = 0.45
    rtt_throughput_exponent: float = 0.25
    cubic_fraction: float = 0.0
    link_sigma: float = 0.35
    fade_rate: float = 0.004

    KINDS = {
        "median_throughput_bps": positive, "log_sigma": non_negative,
        "median_rtt": positive, "rtt_log_sigma": non_negative,
        "rtt_throughput_exponent": finite, "cubic_fraction": probability,
        "link_sigma": non_negative, "fade_rate": probability,
    }

    def __post_init__(self) -> None:
        check(self)

    def sample_path(self, rng: np.random.Generator, seed: int = 0) -> NetworkPath:
        """Draw one client path."""
        base_bps = float(
            self.median_throughput_bps
            * np.exp(rng.normal(0.0, self.log_sigma))
        )
        base_bps = float(np.clip(base_bps, 1e5, 1e9))
        ratio = self.median_throughput_bps / base_bps
        rtt = float(
            self.median_rtt
            * ratio**self.rtt_throughput_exponent
            * np.exp(rng.normal(0.0, self.rtt_log_sigma))
        )
        rtt = float(np.clip(rtt, 0.005, 0.8))
        link = HeavyTailLink(
            base_bps=base_bps,
            sigma=self.link_sigma,
            fade_rate=self.fade_rate,
            seed=int(rng.integers(2**31)) + seed,
        )
        cc_name = "cubic" if rng.random() < self.cubic_fraction else "bbr"
        return NetworkPath(link=link, base_rtt=rtt, cc_name=cc_name)


class PathSampler:
    """Seeded stream of paths drawn from a :class:`PopulationModel`."""

    def __init__(
        self,
        population: Optional[PopulationModel] = None,
        seed: int = 0,
        path_factory: Optional[Callable[[np.random.Generator], NetworkPath]] = None,
    ) -> None:
        self.population = population if population is not None else PopulationModel()
        self.rng = np.random.default_rng(seed)
        self._factory = path_factory
        self._count = 0

    def next_path(self) -> NetworkPath:
        self._count += 1
        if self._factory is not None:
            return self._factory(self.rng)
        return self.population.sample_path(self.rng, seed=self._count)
