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
recursion over reachable states; the first step, whose one reachable state
is the current buffer level, evaluates that bin alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import (
    TYPE_CHECKING,
    Dict,
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro import obs
from repro.core.qoe import DEFAULT_QOE, QoeParams

if TYPE_CHECKING:  # typing only; avoids a circular import with repro.abr
    from repro.abr.base import AbrContext
    from repro.media.chunk import ChunkMenu

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
        # The grid and the memoised geometries are derived from the
        # parameters above (the stall weight among them), which are fixed
        # from here on.
        self._grid = np.arange(0.0, max_buffer_s + buffer_bin_s / 2, buffer_bin_s)
        self._geometry_memo: Dict[
            Tuple[bytes, float], Tuple[np.ndarray, np.ndarray]
        ] = {}

    def _bin_index(self, buffer_s: np.ndarray) -> np.ndarray:
        idx = np.rint(buffer_s / self.buffer_bin_s).astype(int)
        np.maximum(idx, 0, out=idx)
        return np.minimum(idx, len(self._grid) - 1, out=idx)

    def _outcome_geometry(
        self, times: np.ndarray, duration: Union[float, np.ndarray]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(stall_cost, next_bin)``, each ``[a, b, j]``: the stall penalty
        ``stall_weight * seconds stalled``, and the grid bin the buffer
        lands in, when a chunk of ``duration`` seconds sent from grid bin
        ``b`` takes ``times[a, j]`` to arrive. ``duration`` is one number or
        one per row, as an ``(n_rows, 1, 1)`` column. Depends on neither the
        rung's quality nor the context."""
        t = times[:, None, :]  # (rows, 1, k)
        b = self._grid[None, :, None]  # (1, n_bins, 1)
        stall_cost = np.maximum(t - b, 0.0)
        stall_cost *= self.qoe.stall_weight
        next_buffer = np.maximum(b - t, 0.0)
        next_buffer += duration
        np.minimum(next_buffer, self.max_buffer_s, out=next_buffer)
        return stall_cost, self._bin_index(next_buffer)

    def _shared_row_geometry(
        self, times: np.ndarray, duration: float
    ) -> Tuple[np.ndarray, np.ndarray]:
        """:meth:`_outcome_geometry` of a one-row ``times``, memoised on the
        row's contents — not its identity: a TTP that recalibrates its tail
        centre presents a row with other bytes, and a content key can never
        serve the old row's geometry for the new one."""
        key = (times.tobytes(), duration)
        geometry = self._geometry_memo.get(key)
        if geometry is None:
            if len(self._geometry_memo) >= _GEOMETRY_MEMO_ENTRIES:
                self._geometry_memo.clear()
            geometry = self._outcome_geometry(times, duration)
            self._geometry_memo[key] = geometry
        return geometry

    def _horizon_geometry(
        self,
        dists: Sequence[TimeDistribution],
        menus: Sequence["ChunkMenu"],
    ) -> Dict[int, Tuple[np.ndarray, np.ndarray]]:
        """Each step's ``(stall_cost, next_bin)``. A shared outcome row
        keeps its memoised one-row geometry, which broadcasts over the
        rungs. Per-rung rows (point masses, mixtures) are computed for the
        whole horizon in one pass over the concatenated rows, each with its
        own step's chunk duration; their ``next_bin`` holds offsets into the
        flattened ``(rungs, bins)`` value table, ``rung * n_bins + bin``."""
        n_bins = len(self._grid)
        geometry: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
        # Rows concatenate only at equal width: one pass per outcome count.
        per_rung: Dict[int, List[int]] = {}
        for step, (dist, menu) in enumerate(zip(dists, menus)):
            if dist.probs.shape[0] != len(menu):
                raise ValueError("model returned wrong number of versions")
            if dist.times.shape[0] == 1:
                geometry[step] = self._shared_row_geometry(
                    dist.times, menu.duration
                )
            else:
                per_rung.setdefault(dist.times.shape[1], []).append(step)
        for group in per_rung.values():
            counts = [len(menus[step]) for step in group]
            durations = np.repeat(
                np.array([menus[step].duration for step in group]), counts
            )
            stall_cost, next_bin = self._outcome_geometry(
                np.concatenate([dists[step].times for step in group]),
                durations[:, None, None],
            )
            # Rung r of a step reads row r of that step's value table.
            rows = np.arange(max(counts)) * n_bins
            next_bin += np.concatenate([rows[:n] for n in counts])[
                :, None, None
            ]
            stops = list(accumulate(counts))
            for step, start, stop in zip(group, [0] + stops, stops):
                geometry[step] = (stall_cost[start:stop], next_bin[start:stop])
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
        geometry = self._horizon_geometry(dists, menus)
        qualities = [np.asarray(menu.ssims_db) for menu in menus]
        b0 = min(
            max(round(context.buffer_s / self.buffer_bin_s), 0), n_bins - 1
        )

        # Backward pass. V[a_prev, b] = max expected QoE-to-go from buffer
        # bin b when the previous chunk used rung a_prev of the previous
        # step's menu. Step 0 is read at the current bin alone, so that is
        # the one bin it evaluates.
        value: Optional[np.ndarray] = None  # shape (n_prev_rungs, n_bins)
        for step in range(steps - 1, -1, -1):
            bins = slice(None) if step else slice(b0, b0 + 1)
            stall_cost, next_bin = geometry[step]
            # Expected immediate reward without the variation term; a shared
            # row's one-row geometry broadcasts over the rungs here.
            block = (
                self.qoe.quality_weight * qualities[step][:, None, None]
                - stall_cost[:, bins]
            )
            if value is not None:
                # Continuation indexed by (this rung as a_prev, next bin).
                if next_bin.shape[0] == 1:
                    block += value.take(next_bin[0, bins], axis=1)
                else:
                    block += value.take(next_bin[:, bins])
            # Expectation over outcomes j.
            block *= dists[step].probs[:, None, :]
            ev = block.sum(axis=2)  # (n_rungs, n_bins), or (n_rungs, 1)
            if step == 0:
                break

            # Build V for the previous step: subtract the variation penalty
            # |q_a - q_prev| for every previous rung.
            # penalty[a, p] = λ |q_a - q_prev_p|
            penalty = self.qoe.variation_weight * np.abs(
                qualities[step][:, None] - qualities[step - 1][None, :]
            )
            # candidate[a, p, b] = ev[a, b] - penalty[a, p]
            value = (ev[:, None, :] - penalty[:, :, None]).max(axis=0)

        scores = ev[:, 0]
        if context.last_ssim_db is not None:
            scores -= self.qoe.variation_weight * np.abs(
                qualities[0] - context.last_ssim_db
            )
        return scores
