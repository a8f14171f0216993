"""Video sources: live-TV channels modeled as a scene-complexity process.

Under CRF (constant-rate-factor) encoding, the encoder holds perceptual
quality roughly constant and lets the bitrate float with content complexity,
so compressed chunk sizes track how "busy" the video is. We model each
channel as a mean-reverting log-complexity process punctuated by scene cuts
and program changes, which reproduces the within-stream variability of
Fig. 3: quiet talking-head segments compress tightly while sports or action
segments inflate chunk sizes several-fold at the same rung.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional

import numpy as np

from repro.fields import check, non_negative, probability


@dataclass(frozen=True)
class Channel:
    """A live TV channel with its characteristic content statistics.

    Attributes
    ----------
    name:
        Channel label (Puffer carries six over-the-air channels).
    complexity_sigma:
        Stationary standard deviation of log-complexity; sports channels
        have larger swings than news channels.
    scene_cut_rate:
        Probability per chunk of a scene cut (a jump in complexity).
    mean_reversion:
        Per-chunk pull of log-complexity back toward 0 (rate in (0, 1]).
    """

    name: str
    complexity_sigma: float = 0.35
    scene_cut_rate: float = 0.08
    mean_reversion: float = 0.10

    KINDS = {
        "complexity_sigma": non_negative, "scene_cut_rate": probability,
        "mean_reversion": probability,
    }

    def __post_init__(self) -> None:
        check(self)
        if self.mean_reversion <= 0.0:
            raise ValueError("mean_reversion must lie in (0, 1]")


DEFAULT_CHANNELS: List[Channel] = [
    Channel("abc", complexity_sigma=0.32, scene_cut_rate=0.07),
    Channel("cbs", complexity_sigma=0.30, scene_cut_rate=0.06),
    Channel("nbc", complexity_sigma=0.35, scene_cut_rate=0.08),
    Channel("fox", complexity_sigma=0.40, scene_cut_rate=0.10),
    Channel("pbs", complexity_sigma=0.25, scene_cut_rate=0.05),
    Channel("cw", complexity_sigma=0.33, scene_cut_rate=0.07),
]
"""Six channels standing in for Puffer's over-the-air lineup."""


class SceneComplexityProcess:
    """Mean-reverting log-complexity process with scene cuts.

    ``complexity`` is normalized so its long-run mean is 1.0; a value of 2.0
    means the chunk needs about twice the bits of an average chunk at the
    same quality.
    """

    def __init__(self, channel: Channel, rng: np.random.Generator) -> None:
        self.channel = channel
        self.rng = rng
        # Innovation scaled so the stationary std is complexity_sigma.
        self._innovation_sigma = channel.complexity_sigma * np.sqrt(
            1.0 - (1.0 - channel.mean_reversion) ** 2
        )
        self._log_c = float(rng.normal(0.0, channel.complexity_sigma))

    @property
    def complexity(self) -> float:
        return float(np.exp(self._log_c))

    def step(self) -> float:
        """Advance one chunk and return the new complexity."""
        ch = self.channel
        if self.rng.random() < ch.scene_cut_rate:
            # A cut re-draws complexity from the stationary distribution.
            self._log_c = float(self.rng.normal(0.0, ch.complexity_sigma))
        else:
            self._log_c = float(
                (1.0 - ch.mean_reversion) * self._log_c
                + self.rng.normal(0.0, self._innovation_sigma)
            )
        return self.complexity


class VideoSource:
    """An endless sequence of per-chunk complexities for one channel.

    Live TV never ends ("we modified Pensieve ... so that Pensieve does not
    expect the video to end"), so the source is an infinite iterator; use
    :meth:`take` when a bounded clip is needed (e.g., the 10-minute NBC clip
    of the emulation experiment, §5.2).
    """

    def __init__(
        self,
        channel: Channel,
        seed: int = 0,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        self.channel = channel
        self.rng = rng if rng is not None else np.random.default_rng(seed)
        self._process = SceneComplexityProcess(self.channel, self.rng)

    def __iter__(self) -> Iterator[float]:
        while True:
            yield self._process.step()

    def take(self, n_chunks: int) -> List[float]:
        """Return the next ``n_chunks`` complexities."""
        if n_chunks < 0:
            raise ValueError("n_chunks must be non-negative")
        return [self._process.step() for _ in range(n_chunks)]
