"""The Transmission Time Predictor (TTP), §4.2–4.5.

The TTP approximates the oracle the MPC controller needs: for a proposed
chunk of a given size, a *probability distribution* over its transmission
time, discretized into 21 bins. One fully-connected network (two hidden
layers of 64) is trained per horizon step — "multiple networks in parallel
are functionally equivalent to one that takes the future time step as a
variable" (§4.2) — and at decision time the step networks run as one stacked
pass over the whole horizon (:class:`repro.learn.network.MLPStack`).

The class also implements every ablated variant of §4.6 through
:class:`TtpConfig`:

* ``point_estimate`` — collapse the output distribution to its most likely
  bin ("maximum likelihood" version);
* ``predict_throughput`` — ignore the proposed chunk's size and predict a
  throughput distribution instead, deriving time as size/throughput
  ("Throughput Predictor");
* ``hidden=()`` — the linear-regression model ("equivalent to a single-layer
  neural network");
* ``ablated_features`` — drop TCP statistics (RTT, CWND, in-flight,
  delivery rate) or whole feature groups.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, FrozenSet, Sequence, Tuple

import numpy as np

from repro import obs
from repro.core.controller import TimeDistribution, horizon_sizes

if TYPE_CHECKING:  # typing only; avoids circular imports
    from repro.abr.base import AbrContext, ChunkRecord
    from repro.media.chunk import ChunkMenu
    from repro.streaming.session import StreamResult
from repro.core.features import (
    FEATURE_DIM,
    N_TIME_BINS,
    PROPOSED_SIZE_INDEX,
    TCP_FEATURE_INDEX,
    TCP_SLICE,
    TIME_HISTORY_SLICE,
    SIZE_HISTORY_SLICE,
    make_feature_matrix,
    time_bin_centers,
    time_bin_index,
)
from repro.fields import check, whole_positive
from repro.learn.network import MLP, MLPStack
from repro.net.tcp import TcpInfo

N_THROUGHPUT_BINS = N_TIME_BINS
THROUGHPUT_BIN_EDGES_BPS = np.geomspace(1e5, 2e8, N_THROUGHPUT_BINS + 1)


def throughput_bin_index(throughput_bps: float) -> int:
    """Discretize a throughput sample for the Throughput-Predictor ablation."""
    if throughput_bps <= 0:
        raise ValueError("throughput must be positive")
    idx = int(np.searchsorted(THROUGHPUT_BIN_EDGES_BPS, throughput_bps) - 1)
    return int(np.clip(idx, 0, N_THROUGHPUT_BINS - 1))


def throughput_bin_centers_bps() -> np.ndarray:
    """Geometric centers of the throughput bins."""
    edges = THROUGHPUT_BIN_EDGES_BPS
    return np.sqrt(edges[:-1] * edges[1:])


@dataclass(frozen=True)
class TtpConfig:
    """Architecture and ablation switches for a TTP."""

    horizon: int = 5
    hidden: Tuple[int, ...] = (64, 64)
    point_estimate: bool = False
    predict_throughput: bool = False
    ablated_features: FrozenSet[str] = field(default_factory=frozenset)

    KINDS = {"horizon": whole_positive}

    def __post_init__(self) -> None:
        check(self)
        valid = set(TCP_FEATURE_INDEX) | {"tcp", "history_sizes", "history_times"}
        unknown = set(self.ablated_features) - valid
        if unknown:
            raise ValueError(f"unknown ablated features: {sorted(unknown)}")

    @property
    def n_output_bins(self) -> int:
        return N_THROUGHPUT_BINS if self.predict_throughput else N_TIME_BINS

    def to_dict(self) -> dict:
        """JSON-ready form (model registry, checkpoint fingerprints)."""
        return {
            "horizon": self.horizon,
            "hidden": list(self.hidden),
            "point_estimate": self.point_estimate,
            "predict_throughput": self.predict_throughput,
            "ablated_features": sorted(self.ablated_features),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TtpConfig":
        return cls(
            horizon=int(data["horizon"]),
            hidden=tuple(int(h) for h in data["hidden"]),
            point_estimate=bool(data["point_estimate"]),
            predict_throughput=bool(data["predict_throughput"]),
            ablated_features=frozenset(
                str(f) for f in data["ablated_features"]
            ),
        )

    def feature_mask(self) -> np.ndarray:
        """0/1 mask over the 22 input features; ablated columns are zeroed
        at both training and inference time."""
        mask = np.ones(FEATURE_DIM)
        if "tcp" in self.ablated_features:
            mask[TCP_SLICE] = 0.0
        for name, index in TCP_FEATURE_INDEX.items():
            if name in self.ablated_features:
                mask[index] = 0.0
        if "history_sizes" in self.ablated_features:
            mask[SIZE_HISTORY_SLICE] = 0.0
        if "history_times" in self.ablated_features:
            mask[TIME_HISTORY_SLICE] = 0.0
        if self.predict_throughput:
            # The throughput predictor is blind to the proposed chunk size.
            mask[PROPOSED_SIZE_INDEX] = 0.0
        return mask


class TransmissionTimePredictor:
    """Per-horizon-step networks mapping features to a time distribution.

    Implements the :class:`repro.core.controller.TransmissionTimeModel`
    protocol, so it plugs straight into the value-iteration controller.
    """

    def __init__(self, config: TtpConfig = TtpConfig(), seed: int = 0) -> None:
        self.config = config
        rng = np.random.default_rng(seed)
        self._stack = MLPStack(
            [
                MLP(
                    FEATURE_DIM,
                    list(config.hidden),
                    config.n_output_bins,
                    rng=rng,
                )
                for _ in range(config.horizon)
            ]
        )
        self._mask = config.feature_mask()
        self._time_centers = time_bin_centers()
        self._time_centers.flags.writeable = False
        self._tput_centers = throughput_bin_centers_bps()

    @property
    def stack(self) -> MLPStack:
        """The step networks behind one parameter buffer: what training
        runs in lockstep, and where one look tells whether every weight is
        finite."""
        return self._stack

    @property
    def models(self) -> Tuple[MLP, ...]:
        """The step networks, step 0 first. Train or reload them in place;
        neither the tuple nor this attribute can be assigned to, so a
        network cannot be swapped out from under the stacked pass."""
        return self._stack.models

    # ------------------------------------------------------------------
    # Tail calibration
    # ------------------------------------------------------------------
    @property
    def tail_center_s(self) -> float:
        """Representative transmission time of the open [9.75, ∞) bin."""
        return float(self._time_centers[-1])

    def calibrate_tail(
        self, streams: "Sequence[StreamResult]", cap_s: float = 60.0
    ) -> float:
        """Set the tail bin's representative time to the empirical mean of
        observed tail transmission times.

        Times in the open-ended last bin are heavy-tailed (deep fades); a
        fixed small center would make the planner ignore them against the
        µ=100 stall weight. Learning the conditional mean *in situ* keeps
        the expected-stall arithmetic honest for the actual deployment.
        """
        tail_times = [
            min(record.transmission_time, cap_s)
            for stream in streams
            for record in stream.records
            if record.transmission_time >= 9.75
        ]
        if tail_times:
            self._set_tail_center(max(float(np.mean(tail_times)), 10.0))
        return self.tail_center_s

    def _set_tail_center(self, seconds: float) -> None:
        # A new read-only array, never a write into the old one: the
        # distributions already handed out are views of the old row.
        centers = self._time_centers.copy()
        centers[-1] = seconds
        centers.flags.writeable = False
        self._time_centers = centers

    # ------------------------------------------------------------------
    # Label construction
    # ------------------------------------------------------------------
    def label_for(self, record: ChunkRecord) -> int:
        """Training label for one observed chunk."""
        if self.config.predict_throughput:
            return throughput_bin_index(record.observed_throughput_bps)
        return time_bin_index(record.transmission_time)

    # ------------------------------------------------------------------
    # Inference
    # ------------------------------------------------------------------
    def masked_features(
        self,
        history: Sequence[ChunkRecord],
        info: TcpInfo,
        sizes_bytes: np.ndarray,
    ) -> np.ndarray:
        return make_feature_matrix(history, info, sizes_bytes) * self._mask

    def _infer(
        self,
        history: Sequence[ChunkRecord],
        info: TcpInfo,
        sizes_bytes: np.ndarray,
        counts: Sequence[int],
        first_step: int,
    ) -> TimeDistribution:
        """The distribution of ``len(counts)`` consecutive horizon steps
        from ``first_step`` on, ``counts[s]`` of the ``sizes_bytes`` rows
        each: one feature matrix — one history, one TCP snapshot — and one
        stacked pass of the step networks."""
        steps = len(counts)
        if first_step < 0 or first_step + steps > self.config.horizon:
            raise ValueError(f"step must lie in [0, {self.config.horizon})")
        features = self.masked_features(history, info, sizes_bytes)
        if obs.ENABLED:
            # Inference *counts* are deterministic (one per planner call per
            # horizon step); the latency histogram is wall-clock and lands
            # in the quarantined profile.* namespace.
            obs.counter_inc("ttp.inferences", float(steps))
            obs.counter_inc("ttp.inference_rows", float(len(sizes_bytes)))
        with obs.span("ttp.predict"):
            probs = self._stack.predict_proba(features, counts, first_step)
        if self.config.predict_throughput:
            # times[a, j] = size_a / throughput_center_j
            times = sizes_bytes[:, None] * 8.0 / self._tput_centers[None, :]
        else:
            # Every size shares the bin centres: one row, which the planner
            # broadcasts, and which every step of the horizon shares.
            times = self._time_centers[None, :]
        if self.config.point_estimate:
            best = probs.argmax(axis=1)
            times = np.broadcast_to(times, probs.shape)[
                np.arange(len(sizes_bytes)), best
            ][:, None]
            probs = np.ones_like(times)
        return TimeDistribution(times=times, probs=probs)

    def distribution(
        self,
        history: Sequence[ChunkRecord],
        info: TcpInfo,
        sizes_bytes: np.ndarray,
        step: int = 0,
    ) -> TimeDistribution:
        """Transmission-time distribution per candidate size, for the chunk
        ``step`` positions ahead."""
        sizes_bytes = np.asarray(sizes_bytes, dtype=float)
        return self._infer(history, info, sizes_bytes, [len(sizes_bytes)], step)

    def predict(
        self, context: AbrContext, menus: Sequence[ChunkMenu]
    ) -> TimeDistribution:
        """TransmissionTimeModel protocol entry point for the controller:
        the whole horizon in one inference pass."""
        return self._infer(
            context.history,
            context.tcp_info,
            horizon_sizes(menus),
            [len(menu.sizes) for menu in menus],
            0,
        )

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        return {
            "config": self.config.to_dict(),
            # The in-situ tail calibration (calibrate_tail) is part of the
            # trained model: a frozen snapshot that dropped it would plan
            # with the uncalibrated 9.75 s tail center and mis-weight deep
            # fades against the µ=100 stall penalty.
            "tail_center_s": self.tail_center_s,
            "models": [m.state_dict() for m in self.models],
        }

    def load_state_dict(self, state: dict) -> None:
        saved = state["models"]
        if len(saved) != len(self.models):
            raise ValueError("horizon mismatch while loading TTP state")
        tail = state.get("tail_center_s")  # absent in pre-calibration saves
        # NaN fails both comparisons: it would poison every stall term, and
        # an argmax over all-NaN scores silently streams the lowest rung.
        if tail is not None and not 0 < tail < float("inf"):
            raise ValueError("tail_center_s must be positive and finite")
        for model, model_state in zip(self.models, saved):
            model.load_state_dict(model_state)
        if tail is not None:
            self._set_tail_center(float(tail))

    def copy(self) -> "TransmissionTimePredictor":
        """An independent predictor with this one's parameter bytes and tail
        calibration (the read-only bin centres are shared, and replaced,
        never written, by a later calibration)."""
        clone = copy.copy(self)
        clone._stack = copy.deepcopy(self._stack)
        return clone

    @classmethod
    def from_state_dict(cls, state: dict) -> "TransmissionTimePredictor":
        """Rebuild a predictor from a saved :meth:`state_dict`.

        The model-registry load path: JSON float serialization round-trips
        exactly (``repr``/``float`` are inverses for binary64), so a
        predictor reloaded from the registry is *bitwise* identical to the
        one that was committed — which is what makes warm-started continual
        retraining reproducible across kill/resume.
        """
        predictor = cls(TtpConfig.from_dict(state["config"]))
        predictor.load_state_dict(state)
        return predictor
