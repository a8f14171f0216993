"""MPC-HM and RobustMPC-HM (Yin et al., SIGCOMM 2015 [43]).

Both use the same stochastic value-iteration controller as Fugu (§4.4 — on
Puffer, "MPC and Fugu even share most of their codebase") but with the
classical harmonic-mean throughput predictor: transmission time of a
candidate chunk is its size divided by the harmonic mean of the last five
chunk-level throughput samples, as a *point estimate* (a degenerate
one-outcome distribution).

RobustMPC divides the throughput estimate by ``1 + max recent relative
prediction error``, the lower-bound discounting of the original paper, which
trades video quality for fewer stalls — visible in Fig. 1/8 where
RobustMPC-HM has the lowest stall rate and markedly lower SSIM.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Deque, Optional, Sequence

from repro.abr.base import (
    AbrAlgorithm,
    AbrContext,
    ChunkRecord,
    harmonic_mean,
)
from repro.core.controller import (
    TimeDistribution,
    ValueIterationController,
    certain,
    horizon_sizes,
)
from repro.core.qoe import DEFAULT_QOE, QoeParams
from repro.fields import positive, whole_positive
from repro.media.chunk import ChunkMenu

DEFAULT_STARTUP_THROUGHPUT_BPS = 1.3e6
"""Assumed throughput before the first sample — deliberately conservative;
unlike Fugu, the HM predictor cannot read path quality off TCP statistics
on a cold start (Fig. 9)."""

_HM_WINDOW = 5


class HarmonicMeanPredictor:
    """Point-estimate transmission-time model from HM throughput.

    Also tracks per-chunk relative prediction errors for RobustMPC's
    discounting.
    """

    def __init__(
        self,
        robust: bool = False,
        window: int = _HM_WINDOW,
        startup_throughput_bps: float = DEFAULT_STARTUP_THROUGHPUT_BPS,
        conservatism: float = 1.0,
    ) -> None:
        owner = "HarmonicMeanPredictor"
        positive(owner, "conservatism", conservatism)
        positive(owner, "startup_throughput_bps", startup_throughput_bps)
        # A deque(maxlen=0) would silently drop every error sample.
        window = whole_positive(owner, "window", window)
        self.robust = robust
        self.window = window
        self.startup_throughput_bps = startup_throughput_bps
        self.conservatism = conservatism
        self._errors: Deque[float] = deque(maxlen=window)
        self._last_estimate_bps: Optional[float] = None

    def reset(self) -> None:
        self._errors.clear()
        self._last_estimate_bps = None

    def throughput_estimate(self, context: AbrContext) -> float:
        recent = context.history[-self.window :]
        if recent:
            estimate = harmonic_mean([_throughput(record) for record in recent])
        else:
            estimate = self.startup_throughput_bps
        if self.robust and self._errors:
            estimate /= 1.0 + self.conservatism * max(self._errors)
        return estimate

    def predict(
        self, context: AbrContext, menus: Sequence[ChunkMenu]
    ) -> TimeDistribution:
        estimate = self.throughput_estimate(context)
        self._last_estimate_bps = estimate
        # One division for the horizon, in place, viewed as the point
        # mass's one column.
        times = horizon_sizes(menus)
        times *= 8.0
        times /= estimate
        return TimeDistribution(times=times[:, None], probs=certain(len(times)))

    def observe(self, record: ChunkRecord) -> None:
        """Record the relative error of the last prediction (RobustMPC)."""
        if self._last_estimate_bps is None:
            return
        actual = _throughput(record)
        self._errors.append(abs(self._last_estimate_bps - actual) / actual)


def _throughput(record: ChunkRecord) -> float:
    """``record``'s observed throughput, which must be finite and positive:
    a zero divides the harmonic mean by zero, and a NaN turns every
    estimate after it — then every score — NaN, after which argmax streams
    rung 0 without a word."""
    throughput = record.observed_throughput_bps
    if 0.0 < throughput < math.inf:
        return throughput
    if math.isfinite(record.size_bytes) and record.size_bytes > 0:
        field, value = "transmission_time", record.transmission_time
    else:
        field, value = "size_bytes", record.size_bytes
    raise ValueError(
        f"ChunkRecord.{field} of chunk {record.chunk_index} gives no finite "
        f"positive throughput: {value!r}"
    )


class MpcHm(AbrAlgorithm):
    """MPC with the harmonic-mean predictor and the Eq. 1 SSIM objective."""

    name = "mpc_hm"

    def __init__(
        self,
        qoe: QoeParams = DEFAULT_QOE,
        horizon: int = 5,
        robust: bool = False,
        startup_throughput_bps: float = DEFAULT_STARTUP_THROUGHPUT_BPS,
        conservatism: float = 1.0,
    ) -> None:
        self.controller = ValueIterationController(qoe=qoe, horizon=horizon)
        self.predictor = HarmonicMeanPredictor(
            robust=robust,
            startup_throughput_bps=startup_throughput_bps,
            conservatism=conservatism,
        )

    def begin_stream(self) -> None:
        self.predictor.reset()

    def choose(self, context: AbrContext) -> int:
        return self.controller.plan(context, self.predictor)

    def on_chunk_complete(self, record: ChunkRecord) -> None:
        self.predictor.observe(record)


class RobustMpcHm(MpcHm):
    """RobustMPC: HM predictor with worst-case error discounting.

    ``conservatism`` scales the error discount; the default > 1 reflects
    RobustMPC's position in the paper as the most stall-averse scheme
    (lowest stall rate of all five, at a considerable cost in quality,
    Fig. 1/8).
    """

    name = "robust_mpc_hm"

    def __init__(
        self,
        qoe: QoeParams = DEFAULT_QOE,
        horizon: int = 5,
        startup_throughput_bps: float = DEFAULT_STARTUP_THROUGHPUT_BPS,
        conservatism: float = 3.0,
    ) -> None:
        super().__init__(
            qoe=qoe,
            horizon=horizon,
            robust=True,
            startup_throughput_bps=startup_throughput_bps,
            conservatism=conservatism,
        )
