"""Stochastic model-predictive controller (§4.4).

The controller maximizes expected cumulative QoE (Eq. 1) over an H-step
lookahead horizon by value iteration over a discretized playback buffer,
exactly as the paper describes: "the controller computes the optimal
trajectory by solving the above value iteration with dynamic programming...
it discretizes B_i into bins".

One controller serves MPC-HM, RobustMPC-HM, and Fugu — they differ only in
the :class:`TransmissionTimeModel` supplying ``P[T̂(K_i^s) = T_j]``:

* the harmonic-mean predictor returns a *point mass* (a single predicted
  time per candidate size);
* Fugu's TTP returns a full 21-bin probability distribution.

The implementation runs the backward recursion with numpy over the buffer
grid, which is the vectorized equivalent of the paper's memoized forward
recursion over reachable states.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional, Protocol, Sequence, Tuple

import numpy as np

from repro import obs
from repro.core.qoe import DEFAULT_QOE, QoeParams

if TYPE_CHECKING:  # typing only; avoids a circular import with repro.abr
    from repro.abr.base import AbrContext

DEFAULT_HORIZON = 5
"""Planning horizon in chunks (~10 s of video, §4.5)."""

DEFAULT_BUFFER_BIN_S = 0.5
"""Buffer discretization step. The paper only says the buffer is
"discretize[d] into bins"; half-second bins keep the planner's error well
under one chunk duration while halving the DP's state space."""

_GEOMETRY_MEMO_ENTRIES = 8
"""Shared-row geometries one controller keeps (a few 31×21 arrays each). A
deployed TTP presents one row and one chunk duration, so one entry is live
at a time; the bound only stops a caller that keeps changing rows from
growing the memo."""


@dataclass(frozen=True)
class TimeDistribution:
    """Predicted transmission-time distribution for each candidate version.

    ``probs[a, j]`` is the probability of the j-th outcome of version ``a``;
    rows sum to 1. ``times`` holds the outcomes' transmission times, either
    one row per version, ``(n_versions, n_outcomes)``, or — when every
    version shares the same outcomes, as the TTP's bin centres do — a single
    shared row ``(1, n_outcomes)`` that broadcasts against ``probs``. A
    deterministic predictor uses a single column.
    """

    times: np.ndarray
    probs: np.ndarray

    def __post_init__(self) -> None:
        # Only shape checks here: this sits on the per-decision hot path.
        # Full numeric validation is available via validate().
        if self.times.ndim != 2 or self.probs.ndim != 2:
            raise ValueError("expected (n_versions, n_outcomes) matrices")
        shared_row = (1, self.probs.shape[1])
        if self.times.shape not in (self.probs.shape, shared_row):
            raise ValueError(
                "times must match probs or be one shared (1, n_outcomes) row"
            )

    def validate(self) -> None:
        """Full numeric sanity checks (used by tests and custom models)."""
        if np.any(self.times < 0):
            raise ValueError("transmission times must be non-negative")
        if np.any(self.probs < -1e-12):
            raise ValueError("probabilities must be non-negative")
        row_sums = self.probs.sum(axis=1)
        if not np.allclose(row_sums, 1.0, atol=1e-6):
            raise ValueError("each version's probabilities must sum to 1")

    @classmethod
    def point_mass(cls, times: Sequence[float]) -> "TimeDistribution":
        """Deterministic prediction: one outcome per version."""
        arr = np.asarray(times, dtype=float).reshape(-1, 1)
        return cls(times=arr, probs=np.ones_like(arr))


class TransmissionTimeModel(Protocol):
    """Supplies predicted transmission-time distributions to the planner."""

    def predict(
        self, context: "AbrContext", sizes_per_step: Sequence[np.ndarray]
    ) -> Sequence[TimeDistribution]:
        """One distribution per horizon step, in step order:
        ``sizes_per_step[s]`` holds the candidate sizes of the chunk ``s``
        positions ahead of the current one (step 0 is the chunk being
        decided). The planner calls this once per decision, so whatever
        depends on the context alone is computed once."""
        ...


class ValueIterationController:
    """H-step stochastic MPC over a discretized buffer (§4.4–4.5)."""

    def __init__(
        self,
        qoe: QoeParams = DEFAULT_QOE,
        horizon: int = DEFAULT_HORIZON,
        max_buffer_s: float = 15.0,
        buffer_bin_s: float = DEFAULT_BUFFER_BIN_S,
    ) -> None:
        if horizon <= 0:
            raise ValueError("horizon must be positive")
        if max_buffer_s <= 0 or buffer_bin_s <= 0:
            raise ValueError("buffer parameters must be positive")
        self.qoe = qoe
        self.horizon = horizon
        self.max_buffer_s = max_buffer_s
        self.buffer_bin_s = buffer_bin_s
        self._grid = np.arange(0.0, max_buffer_s + buffer_bin_s / 2, buffer_bin_s)
        self._geometry_memo: Dict[
            Tuple[bytes, float], Tuple[np.ndarray, np.ndarray]
        ] = {}

    def _bin_index(self, buffer_s: np.ndarray) -> np.ndarray:
        idx = np.rint(buffer_s / self.buffer_bin_s).astype(int)
        return np.clip(idx, 0, len(self._grid) - 1)

    def _outcome_geometry(
        self, times: np.ndarray, duration: float
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(stall, next_bin)``, each ``[a, b, j]``: seconds stalled, and
        the grid bin the buffer lands in, when a chunk of ``duration``
        seconds sent from grid bin ``b`` takes ``times[a, j]`` to arrive.
        Depends on neither the rung's quality nor the context."""
        t = times[:, None, :]  # (rows, 1, k)
        b = self._grid[None, :, None]  # (1, n_bins, 1)
        stall = np.maximum(t - b, 0.0)
        next_buffer = np.minimum(
            np.maximum(b - t, 0.0) + duration, self.max_buffer_s
        )
        return stall, self._bin_index(next_buffer)

    def _shared_row_geometry(
        self, times: np.ndarray, duration: float
    ) -> Tuple[np.ndarray, np.ndarray]:
        """:meth:`_outcome_geometry` of a one-row ``times``, memoised on the
        row's contents — not its identity: a TTP recalibrates its tail
        centre in place, and a content key can never serve the old row's
        geometry for the new one."""
        key = (times.tobytes(), duration)
        geometry = self._geometry_memo.get(key)
        if geometry is None:
            if len(self._geometry_memo) >= _GEOMETRY_MEMO_ENTRIES:
                self._geometry_memo.clear()
            geometry = self._outcome_geometry(times, duration)
            self._geometry_memo[key] = geometry
        return geometry

    def plan(
        self,
        context: AbrContext,
        model: TransmissionTimeModel,
    ) -> int:
        """Return the ladder index to send for ``context.menu``.

        Plans over ``min(horizon, len(context.lookahead))`` steps; replanning
        after every chunk (receding horizon) is the caller's responsibility,
        which the ABR wrapper performs naturally by calling ``plan`` per
        chunk.
        """
        steps = min(self.horizon, len(context.lookahead))
        if steps == 0:
            raise ValueError("lookahead must contain at least one menu")
        if obs.ENABLED:
            obs.counter_inc("controller.plans")
            obs.counter_inc("controller.plan_steps", float(steps))
        with obs.span("controller.plan"):
            return int(np.argmax(self._scores(context, model, steps)))

    def _scores(
        self,
        context: "AbrContext",
        model: TransmissionTimeModel,
        steps: int,
    ) -> np.ndarray:
        """Expected cumulative QoE of each rung of ``context.menu``."""
        menus = context.lookahead[:steps]
        n_bins = len(self._grid)
        dists = model.predict(
            context, [np.asarray(menu.sizes) for menu in menus]
        )
        if len(dists) != steps:
            raise ValueError("model returned wrong number of steps")

        # Backward pass. V[b, a_prev] = max expected QoE-to-go from buffer
        # bin b when the previous chunk used rung a_prev of the previous
        # step's menu.
        value: Optional[np.ndarray] = None  # shape (n_bins, n_prev_rungs)
        first_step_ev: Optional[np.ndarray] = None
        for step in range(steps - 1, -1, -1):
            menu = menus[step]
            n_rungs = len(menu)
            qualities = np.asarray(menu.ssims_db)
            times = dists[step].times  # (n_rungs, k), or (1, k) shared
            probs = dists[step].probs
            if probs.shape[0] != n_rungs:
                raise ValueError("model returned wrong number of versions")

            # A shared row leaves stall and next_bin one row deep; they
            # broadcast over the rungs below, value for value.
            if times.shape[0] == 1:
                stall, next_bin = self._shared_row_geometry(
                    times, menu.duration
                )
            else:
                stall, next_bin = self._outcome_geometry(times, menu.duration)
            # Expected immediate reward without the variation term.
            immediate = (
                self.qoe.quality_weight * qualities[:, None, None]
                - self.qoe.stall_weight * stall
            )
            if value is not None:
                # Continuation indexed by (next bin, this rung as a_prev).
                cont = value[next_bin, np.arange(n_rungs)[:, None, None]]
                immediate = immediate + cont
            # Expectation over outcomes j.
            ev = (immediate * probs[:, None, :]).sum(axis=2)  # (n_rungs, n_bins)

            if step == 0:
                first_step_ev = ev
                break

            # Build V for the previous step: subtract the variation penalty
            # |q_a - q_prev| for every previous rung.
            prev_menu = menus[step - 1]
            prev_qualities = np.asarray(prev_menu.ssims_db)
            # penalty[a, p] = λ |q_a - q_prev_p|
            penalty = self.qoe.variation_weight * np.abs(
                qualities[:, None] - prev_qualities[None, :]
            )
            # candidate[a, b, p] = ev[a, b] - penalty[a, p]
            candidate = ev[:, :, None] - penalty[:, None, :]
            value = candidate.max(axis=0).reshape(n_bins, len(prev_menu))

        assert first_step_ev is not None
        b0 = min(
            max(round(context.buffer_s / self.buffer_bin_s), 0), n_bins - 1
        )
        scores = first_step_ev[:, b0].copy()
        if context.last_ssim_db is not None:
            scores -= self.qoe.variation_weight * np.abs(
                np.asarray(menus[0].ssims_db) - context.last_ssim_db
            )
        return scores
