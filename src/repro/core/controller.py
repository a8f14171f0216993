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

A point-mass step has one outcome of probability exactly 1, so its
expectation is that outcome: the backward pass skips the multiply by 1.0
and the sum over an axis of length one for it, with the same bits.

The implementation runs the backward recursion with numpy over the buffer
grid, which is the vectorized equivalent of the paper's memoized forward
recursion over reachable states; the first step, whose one reachable state
is the current buffer level, evaluates that bin alone.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate, chain
from typing import (
    TYPE_CHECKING,
    Dict,
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    TypeVar,
)

import numpy as np

from repro import obs
from repro.core.qoe import DEFAULT_QOE, QoeParams
from repro.fields import positive, whole_positive

if TYPE_CHECKING:  # typing only; avoids a circular import with repro.abr
    from repro.abr.base import AbrContext
    from repro.media.chunk import ChunkMenu

DEFAULT_HORIZON = 5
"""Planning horizon in chunks (~10 s of video, §4.5)."""

DEFAULT_BUFFER_BIN_S = 0.5
"""Buffer discretization step. The paper only says the buffer is
"discretize[d] into bins"; half-second bins keep the planner's error well
under one chunk duration while halving the DP's state space."""

_MEMO_ENTRIES = 8
"""Entries each of a controller's two memos keeps: shared-row geometries (a
few 31×21 arrays each) and per-rung row layouts (two columns of one number
per row). A deployed TTP presents one row and one chunk duration, so one
geometry is live at a time; a point-mass model on one ladder presents one
layout per horizon length, five in all. The bound only stops a caller that
keeps changing rows or ladders from growing a memo."""

_ONES = np.ones((1024, 1))
_ONES.flags.writeable = False
"""The read-only column of ones whose leading rows are the probabilities of
every point mass of up to 1024 rows (:func:`certain`); a horizon of five
steps on the default ladder has 50."""

_K = TypeVar("_K")
_V = TypeVar("_V")


def _keep(memo: Dict[_K, _V], key: _K, value: _V) -> _V:
    """``value``, stored in ``memo`` — which starts over when it is full.
    ``key`` must hold the *contents* of everything ``value`` was computed
    from, never an identity."""
    if len(memo) >= _MEMO_ENTRIES:
        memo.clear()
    memo[key] = value
    return value


def certain(rows: int) -> np.ndarray:
    """The probabilities of a ``rows``-row point mass: a read-only ``(rows,
    1)`` column of ones, a view of one shared column when it is long
    enough. Read-only, since the planner only reads it."""
    if rows <= len(_ONES):
        return _ONES[:rows]
    probs = np.ones((rows, 1))
    probs.flags.writeable = False
    return probs


def _check_times(
    times: np.ndarray, model: object, stops: Sequence[int]
) -> None:
    """Raise unless every predicted transmission time is a non-negative
    number, naming the model and the first bad row. A NaN time scores
    every rung NaN (and rung 0 streams); a negative one lands the buffer
    above where it started. One reduction when all is well: a NaN fails
    ``>=`` as a negative time does."""
    if times.min() >= 0.0:
        return
    row = int(np.flatnonzero(~(times >= 0.0).all(axis=1))[0])
    value = float(times[row][~(times[row] >= 0.0)][0])
    if times.shape[0] == 1:
        where = "its shared outcome row"
    else:
        step = bisect_right(stops, row)
        rung = row - (stops[step - 1] if step else 0)
        where = f"row {row} (step {step}, rung {rung})"
    raise ValueError(
        f"{type(model).__name__} predicted a transmission time of {value!r} s "
        f"in {where}; times must be non-negative numbers"
    )


@dataclass(frozen=True)
class TimeDistribution:
    """Predicted transmission-time distributions of a horizon's candidates.

    Each row of ``probs`` is one (step, rung) pair, step-major: the rungs of
    step 0 lowest first, then those of step 1, and so on. ``probs[i, j]``
    is the probability of the j-th outcome of row ``i``; rows sum to 1.
    ``times`` holds the outcomes' transmission times, either one row per
    ``probs`` row, ``(n_rows, n_outcomes)``, or — when every row of every
    step shares the same outcomes, as the TTP's bin centres do — a single
    shared row ``(1, n_outcomes)``. A deterministic predictor uses a single
    column, whose probabilities are then exactly 1.0 (:meth:`validate`
    checks it; the planner relies on it).
    """

    times: np.ndarray
    probs: np.ndarray

    def __post_init__(self) -> None:
        # Only shape checks here: this sits on the per-decision hot path.
        # Full numeric validation is available via validate().
        if self.times.ndim != 2 or self.probs.ndim != 2:
            raise ValueError("expected (n_rows, n_outcomes) matrices")
        if self.times.shape[1] != self.probs.shape[1]:
            raise ValueError("times and probs must have the same outcome count")
        if self.times.shape[0] not in (1, self.probs.shape[0]):
            raise ValueError(
                "times must have one row per probs row or one shared row"
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
        # The planner takes a one-outcome row as certain and skips the
        # weighting, so nearly 1 is not good enough: every point mass is
        # built from the constant 1.0, never accumulated.
        # repro: allow-SIM001(a contract check against the literal every point-mass producer writes, not an accumulated quantity)
        if self.probs.shape[1] == 1 and np.any(self.probs != 1.0):
            raise ValueError("a one-outcome probability must be exactly 1")

    @classmethod
    def point_mass(cls, times: Sequence[float]) -> "TimeDistribution":
        """Deterministic prediction: one outcome per row."""
        arr = np.asarray(times, dtype=float).reshape(-1, 1)
        return cls(times=arr, probs=certain(len(arr)))


def horizon_sizes(menus: Sequence["ChunkMenu"]) -> np.ndarray:
    """Every candidate's size in bytes, one per (step, rung) row in
    :class:`TimeDistribution`'s step-major order."""
    return np.fromiter(chain.from_iterable([menu.sizes for menu in menus]), float)


class TransmissionTimeModel(Protocol):
    """Supplies predicted transmission-time distributions to the planner."""

    def predict(
        self, context: "AbrContext", menus: Sequence["ChunkMenu"]
    ) -> TimeDistribution:
        """One distribution for the whole horizon, whose rows are its
        (step, rung) pairs step-major: ``menus[s]`` is the chunk ``s``
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
        owner = "ValueIterationController"
        positive(owner, "max_buffer_s", max_buffer_s)
        positive(owner, "buffer_bin_s", buffer_bin_s)
        self.qoe = qoe
        self.horizon = whole_positive(owner, "horizon", horizon)
        self.max_buffer_s = max_buffer_s
        self.buffer_bin_s = buffer_bin_s
        # The grid and the memoised geometries are derived from the
        # parameters above (the stall weight among them), which are fixed
        # from here on.
        self._grid = np.arange(0.0, max_buffer_s + buffer_bin_s / 2, buffer_bin_s)
        # Where a landing buffer is clipped: the bin of ``b`` is ``rint(b /
        # buffer_bin_s)`` with ``b`` at most max_buffer_s and the bin at
        # most the grid's top. Both maps are monotone, so the second clip
        # is a clip of the buffer too, at the top bin's own level when
        # max_buffer_s rounds past it (max_buffer_s / buffer_bin_s at a
        # half, or the grid's ``arange`` ending a bin short).
        top = len(self._grid) - 1
        self._ceiling = float(max_buffer_s)
        if np.rint(self._ceiling / buffer_bin_s) > top:
            self._ceiling = float(self._grid[top])
        self._geometry_memo: Dict[
            Tuple[bytes, Tuple[float, ...]], Tuple[np.ndarray, np.ndarray]
        ] = {}
        self._layout_memo: Dict[
            Tuple[Tuple[int, ...], Tuple[float, ...]],
            Tuple[np.ndarray, np.ndarray, List[int]],
        ] = {}

    def _outcome_geometry(
        self, times: np.ndarray, duration: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(stall_cost, next_bin)``: the stall penalty ``stall_weight *
        seconds stalled``, ``[a, b, j]``, and the grid bin the buffer lands
        in, ``[d, b, j]``, when a chunk of ``duration[d]`` seconds sent from
        grid bin ``b`` takes ``times[a, j]`` to arrive. ``duration`` is an
        ``(n, 1, 1)`` column: one number per row of ``times``, or one per
        step for a single shared row. Depends on neither the rung's quality
        nor the context.

        Both come from the one ``gap = t - b``. The landing buffer
        ``max(b - t, 0) + duration`` is ``duration - min(t - b, 0)``: ``b -
        t`` is ``-(t - b)`` exactly, and the two differ only in the sign of
        a zero, which the bin index drops. Durations are positive
        (:meth:`_row_layout`), so the buffer is too, and the bin needs no
        floor at 0; its two ceilings are one clip at ``self._ceiling``.
        """
        gap = times[:, None, :] - self._grid[None, :, None]  # (rows, n_bins, k)
        stall_cost = np.maximum(gap, 0.0)
        stall_cost *= self.qoe.stall_weight
        next_buffer = np.subtract(duration, np.minimum(gap, 0.0, out=gap))
        np.minimum(next_buffer, self._ceiling, out=next_buffer)
        next_buffer /= self.buffer_bin_s
        return stall_cost, np.rint(next_buffer, out=next_buffer).astype(int)

    def _shared_row_geometry(
        self, times: np.ndarray, durations: Tuple[float, ...], model: object
    ) -> Tuple[np.ndarray, np.ndarray]:
        """:meth:`_outcome_geometry` of a one-row ``times``: a one-row
        ``stall_cost`` every rung of every step shares, and one
        ``(n_bins, n_outcomes)`` ``next_bin`` table per step. Memoised on the
        row's contents — not its identity: a TTP that recalibrates its tail
        centre presents a row with other bytes, and a content key can never
        serve the old row's geometry for the new one. A row is checked
        (:func:`_check_times`) when it first arrives; a memoised row has
        passed."""
        key = (times.tobytes(), durations)
        geometry = self._geometry_memo.get(key)
        if geometry is None:
            _check_times(times, model, ())
            geometry = _keep(
                self._geometry_memo,
                key,
                self._outcome_geometry(
                    times, np.array(durations)[:, None, None]
                ),
            )
        return geometry

    def _row_layout(
        self, counts: Tuple[int, ...], durations: Tuple[float, ...]
    ) -> Tuple[np.ndarray, np.ndarray, List[int]]:
        """What a horizon with these rung counts and chunk durations needs
        beside its model's output: each (step, rung) row's duration and its
        offset into the flattened ``(rungs, bins)`` value table, both as
        ``(n_rows, 1, 1)`` columns, and where each step's rows stop. One
        ladder and one chunk duration present one layout per horizon
        length, so it is memoised like the shared-row geometry."""
        key = (counts, durations)
        layout = self._layout_memo.get(key)
        if layout is None:
            # What the outcome geometry's clips rest on; a NaN would pass
            # EncodedChunk's own ``duration <= 0`` test.
            for duration in durations:
                if not 0.0 < duration < math.inf:
                    raise ValueError(
                        "chunk durations must be positive and finite, got "
                        f"{duration!r}"
                    )
            rows = np.arange(max(counts)) * len(self._grid)
            layout = _keep(
                self._layout_memo,
                key,
                (
                    np.repeat(np.array(durations), counts)[:, None, None],
                    np.concatenate([rows[:n] for n in counts])[:, None, None],
                    list(accumulate(counts)),
                ),
            )
        return layout

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
        buffer_s, last_ssim_db = context.buffer_s, context.last_ssim_db
        # NaN and ±inf would otherwise fail inside round() with a message
        # naming neither, or score every rung NaN and stream rung 0.
        if not math.isfinite(buffer_s):
            raise ValueError(f"AbrContext.buffer_s must be finite, got {buffer_s}")
        if last_ssim_db is not None and not math.isfinite(last_ssim_db):
            raise ValueError(
                f"AbrContext.last_ssim_db must be finite, got {last_ssim_db}"
            )
        menus = context.lookahead[:steps]
        counts = tuple([len(menu.sizes) for menu in menus])
        durations = tuple([menu.duration for menu in menus])
        row_durations, offsets, stops = self._row_layout(counts, durations)
        dist = model.predict(context, menus)
        times, probs = dist.times, dist.probs
        if probs.shape[0] != stops[-1]:
            raise ValueError(
                f"model returned the wrong number of rows: {probs.shape[0]} "
                f"for a horizon of {stops[-1]} (step, rung) pairs"
            )
        b0 = min(max(round(buffer_s / self.buffer_bin_s), 0), len(self._grid) - 1)
        starts = [0] + stops[:-1]

        # Geometry, once for the horizon: the continuation of step s is
        # value.take(next_bin[s], axis). A shared outcome row keeps its
        # memoised one-row geometry — stall_cost broadcasts over every row,
        # next_bin[s] indexes the value table's bin axis (1). Per-rung rows
        # (point masses, mixtures) are computed in one pass, each with its
        # own step's chunk duration; their next_bin holds offsets into the
        # flattened value table (axis None), rung * n_bins + bin. Step 0,
        # read at the current bin b0 alone, is cut to that bin.
        if times.shape[0] == 1:
            stall_cost, tables = self._shared_row_geometry(
                times, durations, model
            )
            stall_0 = stall_rest = stall_cost
            next_bin = list(tables)
            next_bin[0] = next_bin[0][b0 : b0 + 1]
            axis: Optional[int] = 1
        else:
            _check_times(times, model, stops)
            stall_cost, flat = self._outcome_geometry(times, row_durations)
            stall_0, stall_rest = stall_cost[: stops[0]], stall_cost[stops[0] :]
            flat += offsets
            next_bin = [flat[start:stop] for start, stop in zip(starts, stops)]
            next_bin[0] = next_bin[0][:, b0 : b0 + 1]
            axis = None

        # What the menus alone determine: each row's weighted quality, and
        # penalty[s - 1][a, p] = λ |q_s[a] - q_{s-1}[p]| for switching to
        # rung a of step s from rung p of the step before, with a trailing
        # bin axis. One rung count across the horizon (every real ladder)
        # makes each a single block; otherwise the same operands are built
        # step by step.
        weight, variation = self.qoe.quality_weight, self.qoe.variation_weight
        quality: Sequence[np.ndarray]
        if len(set(counts)) == 1:
            quality = np.array([menu.ssims_db for menu in menus])
            reward = weight * quality.reshape(-1)
            penalty: Sequence[np.ndarray] = variation * np.abs(
                quality[1:, :, None, None] - quality[:-1, None, :, None]
            )
        else:
            quality = [np.asarray(menu.ssims_db) for menu in menus]
            reward = weight * np.concatenate(quality)
            penalty = [
                variation * np.abs(q[:, None, None] - q_prev[None, :, None])
                for q, q_prev in zip(quality[1:], quality)
            ]
        if probs.shape[1] == 1:
            # A point mass is certain, so its expectation is its one
            # outcome, which a length-1 sum returns plus 0.0: -0.0 becomes
            # 0.0, everything else stays. Added here once, not per step:
            # (r + 0.0) - s is (r - s) + 0.0, and the continuation added
            # later — a max of such sums less a penalty — is never -0.0,
            # while x + c differs from (x + c) + 0.0 only when both are -0.0.
            reward += 0.0
        # Expected immediate reward without the variation term: step 0 at
        # the current bin, the other steps each a view of one block, into
        # which the continuation is added in place.
        base_0 = reward[: stops[0], None, None] - stall_0[:, b0 : b0 + 1]
        base = reward[stops[0] :, None, None] - stall_rest

        # Backward pass. V[a_prev, b] = max expected QoE-to-go from buffer
        # bin b when the previous chunk used rung a_prev of the previous
        # step's menu.
        value: Optional[np.ndarray] = None  # shape (n_prev_rungs, n_bins)
        for step in range(steps - 1, -1, -1):
            start, stop = starts[step], stops[step]
            if step:
                block = base[start - stops[0] : stop - stops[0]]
            else:
                block = base_0
            if value is not None:
                # Continuation indexed by (this rung as a_prev, next bin).
                block += value.take(next_bin[step], axis)
            # Expectation over outcomes j, as (n_rungs, 1, n_bins); with
            # one bin at step 0.
            if probs.shape[1] == 1:
                ev = block[:, None, :, 0]
            else:
                block *= probs[start:stop, None, :]
                ev = block.sum(axis=2)[:, None, :]
            if step == 0:
                break
            # candidate[a, p, b] = ev[a, b] - penalty[a, p]
            value = (ev - penalty[step - 1]).max(axis=0)

        scores = ev[:, 0, 0]
        if last_ssim_db is not None:
            scores -= variation * np.abs(quality[0] - last_ssim_db)
        return scores
