"""Oboe-style auto-tuning (Akhtar et al., SIGCOMM 2018 [2]).

Oboe "auto-tun[es] video ABR algorithms to network conditions": offline, it
simulates a tunable ABR (RobustMPC) over synthetic stationary network
states — parameterized by throughput mean and variability — and records the
best-performing configuration per state; online, it detects network state
changes and applies the stored configuration. Like CS2P it assumes
"the network path has changed state" is a meaningful, detectable event (§2)
— the discrete-state world view Fig. 2 shows Puffer does not exhibit.

This implementation tunes RobustMPC's ``conservatism`` (the error-discount
multiplier) per (log-mean throughput, coefficient-of-variation) bucket.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.abr.base import AbrAlgorithm, AbrContext, ChunkRecord
from repro.abr.mpc import RobustMpcHm
from repro.core.qoe import DEFAULT_QOE, QoeParams, chunk_qoe
from repro.media.encoder import VbrEncoder
from repro.media.source import DEFAULT_CHANNELS, VideoSource
from repro.net.link import HeavyTailLink
from repro.net.tcp import TcpConnection
from repro.streaming.simulator import simulate_stream

DEFAULT_CONSERVATISM_CANDIDATES = (0.5, 1.0, 3.0, 6.0)
DEFAULT_MEAN_EDGES_BPS = (1e6, 4e6, 16e6)
"""Bucket edges on mean throughput: <1, 1–4, 4–16, >16 Mbit/s."""

DEFAULT_CV_EDGE = 0.4
"""Buckets split into 'steady' vs 'variable' at this coefficient of
variation, as Oboe distinguishes throughput stability."""


def classify_state(
    mean_bps: float,
    cv: float,
    mean_edges: Sequence[float] = DEFAULT_MEAN_EDGES_BPS,
    cv_edge: float = DEFAULT_CV_EDGE,
) -> Tuple[int, int]:
    """Map a (mean, coefficient-of-variation) pair to a state bucket."""
    if mean_bps <= 0:
        raise ValueError("mean throughput must be positive")
    mean_bucket = int(np.searchsorted(mean_edges, mean_bps))
    cv_bucket = 0 if cv < cv_edge else 1
    return mean_bucket, cv_bucket


@dataclass
class OboeConfigMap:
    """Offline-tuned configuration per network-state bucket."""

    table: Dict[Tuple[int, int], float] = field(default_factory=dict)
    default_conservatism: float = 3.0
    mean_edges: Tuple[float, ...] = DEFAULT_MEAN_EDGES_BPS
    cv_edge: float = DEFAULT_CV_EDGE

    def lookup(self, mean_bps: float, cv: float) -> float:
        key = classify_state(mean_bps, cv, self.mean_edges, self.cv_edge)
        return self.table.get(key, self.default_conservatism)


def _mean_chunk_qoe(result, qoe: QoeParams) -> float:
    """Cumulative Eq. 1 QoE per chunk for an offline-simulated stream."""
    if not result.records:
        return -np.inf
    total = 0.0
    prev: Optional[float] = None
    buffer = 0.0
    for record in result.records:
        total += chunk_qoe(
            qoe, record.ssim_db, prev, record.transmission_time, buffer
        )
        buffer = min(max(buffer - record.transmission_time, 0.0) + 2.002, 15.0)
        prev = record.ssim_db
    return total / len(result.records)


def build_config_map(
    candidates: Sequence[float] = DEFAULT_CONSERVATISM_CANDIDATES,
    traces_per_state: int = 4,
    chunks_per_trace: float = 120.0,
    qoe: QoeParams = DEFAULT_QOE,
    seed: int = 0,
) -> OboeConfigMap:
    """Oboe's offline stage: per synthetic stationary state, pick the
    RobustMPC conservatism maximizing mean chunk QoE."""
    config_map = OboeConfigMap()
    mean_levels = [5e5, 2e6, 8e6, 3e7]  # representative of each bucket
    cv_levels = [(0.15, 0), (0.7, 1)]
    for mean_i, mean_bps in enumerate(mean_levels):
        for sigma, cv_bucket in cv_levels:
            scores = {c: 0.0 for c in candidates}
            for trace_i in range(traces_per_state):
                # Tuple seeds, domain-separated per RNG family: the media
                # generator and the link previously shared one arithmetic
                # seed and so drew identical streams.  Both are rebuilt
                # inside the conservatism loop on purpose — every
                # candidate replays the exact same synthetic state.
                media_seed = (seed, 0x0B0E, mean_i, cv_bucket, trace_i)
                link_seed = (seed, 0x117C, mean_i, cv_bucket, trace_i)
                for conservatism in candidates:
                    rng = np.random.default_rng(media_seed)
                    source = VideoSource(DEFAULT_CHANNELS[0], rng=rng)
                    encoder = VbrEncoder(rng=rng)
                    link = HeavyTailLink(
                        base_bps=mean_bps, sigma=sigma, fade_rate=0.0,
                        seed=link_seed,
                    )
                    connection = TcpConnection(link, base_rtt=0.05)
                    result = simulate_stream(
                        encoder.stream(source),
                        RobustMpcHm(conservatism=conservatism),
                        connection,
                        watch_time_s=chunks_per_trace * 2.002,
                    )
                    scores[conservatism] += _mean_chunk_qoe(result, qoe)
            best = max(scores, key=scores.get)
            config_map.table[(mean_i, cv_bucket)] = best
    return config_map


class OboeRobustMpc(AbrAlgorithm):
    """RobustMPC with Oboe-style per-state configuration switching.

    Online, the scheme estimates the current network state from a window of
    observed chunk throughputs; when the state's bucket changes (Oboe's
    change-point event), the controller's conservatism is re-looked-up.
    """

    name = "oboe_robust_mpc"

    def __init__(
        self,
        config_map: OboeConfigMap,
        qoe: QoeParams = DEFAULT_QOE,
        window: int = 10,
    ) -> None:
        if window < 2:
            raise ValueError("need a window of at least 2 samples")
        self.config_map = config_map
        self.window = window
        self._inner = RobustMpcHm(qoe=qoe)
        self._state: Optional[Tuple[int, int]] = None

    @property
    def current_conservatism(self) -> float:
        return self._inner.predictor.conservatism

    def begin_stream(self) -> None:
        self._inner.begin_stream()
        self._state = None

    def _update_state(self, history: Sequence[ChunkRecord]) -> None:
        recent = history[-self.window :]
        if len(recent) < 2:
            return
        throughputs = np.array(
            [r.observed_throughput_bps for r in recent]
        )
        mean = float(throughputs.mean())
        cv = float(throughputs.std() / mean) if mean > 0 else 1.0
        state = classify_state(
            mean, cv, self.config_map.mean_edges, self.config_map.cv_edge
        )
        if state != self._state:
            self._state = state
            self._inner.predictor.conservatism = self.config_map.lookup(
                mean, cv
            )

    def choose(self, context: AbrContext) -> int:
        self._update_state(context.history)
        return self._inner.choose(context)

    def on_chunk_complete(self, record: ChunkRecord) -> None:
        self._inner.on_chunk_complete(record)
