"""Bottleneck link models.

A link model is a capacity process: ``capacity_at(t)`` returns the bottleneck
rate in bits per second at absolute time ``t``. All stochastic links generate
their capacity lazily from a seeded generator, so a link is deterministic
given its construction arguments and can be queried at arbitrary
(non-decreasing or random-access) times.

They realize capacity in blocks of epochs: a Python loop makes each epoch's
draws in the order one epoch at a time would make them (a fade can start in
any epoch), then one ``np.exp`` and the floors run over the whole block.
The generator is private to the link, so how far ahead it has realized
cannot be observed, and the capacities are the per-epoch ones to the bit
(``tests/net/test_link_blocks.py`` holds them to the frozen per-epoch
realization).

Two families matter for the paper:

* :class:`MarkovLink` — the CS2P world view: throughput sits in one of a few
  discrete states and jumps between them (Fig. 2a).
* :class:`HeavyTailLink` — what Puffer actually observes: continuous,
  mean-reverting evolution around a per-session level drawn from a
  heavy-tailed population, with occasional deep fades/outages (Fig. 2b).
"""

from __future__ import annotations

import math
from typing import List, Sequence, Tuple

import numpy as np

from repro.fields import finite, non_negative, positive, probability, whole

MIN_CAPACITY = 1_000.0
"""Floor on link capacity (bits/s) so transmissions always terminate."""

_MIN_BLOCK = 8
_MAX_BLOCK = 64
"""Bounds on how many epochs a lazy link realizes past the one asked for."""

_MAX_EPOCHS = 10_000_000
"""Runaway guard on a lazy link's realized epochs: 116 days of the default
1 s epochs, far above any session (hours).  A time in a later epoch is an
error, raised before any epoch is realized, instead of minutes of
realizing them."""


def epoch_index(t: float, epoch: float) -> int:
    """Index of the epoch containing time ``t`` under width ``epoch``.

    The naive ``int(t / epoch)`` is wrong exactly at epoch boundaries when
    ``epoch`` is not representable in binary: for ``t = k * epoch`` the
    division ``t / epoch`` can land just below ``k`` (it does so ~6% of the
    time for ``epoch = 0.3``), silently returning the *previous* epoch's
    capacity at the instant a new epoch begins.  Epoch ``i`` owns the
    half-open interval ``[i * epoch, (i + 1) * epoch)``; this helper
    truncates and then corrects by at most one step in either direction so
    the interval rule holds exactly in float arithmetic.
    """
    if t < 0:
        raise ValueError("time must be non-negative")
    i = int(t / epoch)
    if (i + 1) * epoch <= t:
        i += 1
    elif i > 0 and i * epoch > t:
        i -= 1
    return i


class LinkModel:
    """Abstract time-varying bottleneck."""

    def capacity_at(self, t: float) -> float:
        """Instantaneous capacity in bits/s at absolute time ``t >= 0``."""
        raise NotImplementedError

    def next_change_after(self, t: float) -> float:
        """Earliest time strictly after ``t`` at which capacity may change.

        Event-driven co-simulation (:mod:`repro.edge.engine`) advances
        fluid flows at constant rates between change points and re-solves
        shares at each one; this is how a link declares its change points.
        The default declares the capacity constant (``inf``) — every
        epoch-based link in this package overrides it; a custom
        continuously-varying subclass should too: the co-simulation and
        :meth:`repro.net.tcp.TcpConnection.transmit` read the capacity
        (:meth:`epoch_at`) once and hold it until the declared change
        point, so a link that declares none is read once.
        """
        if t < 0:
            raise ValueError("time must be non-negative")
        return math.inf

    def epoch_at(self, t: float) -> Tuple[float, float]:
        """``(capacity_at(t), next_change_after(t))``: the capacity at
        ``t`` and the end of the span it holds over.  This is the one
        capacity read of the TCP round (``TcpConnection.transmit`` and the
        stream kernel's) and of the co-simulation's cursors; epoch links
        answer it with one epoch lookup."""
        return self.capacity_at(t), self.next_change_after(t)

    def _check_finite(self, t: float) -> None:
        """Raise, naming the link, unless ``t`` is finite: ``epoch_index``
        says only ``cannot convert float NaN to integer`` (``infinity``, an
        ``OverflowError``) or, for ``-inf``, that time must be
        non-negative."""
        if not math.isfinite(t):
            raise ValueError(
                f"{type(self).__name__}: time must be finite, got {t!r}"
            ) from None

    def sample_epochs(self, n_epochs: int, epoch: float = 6.0) -> List[float]:
        """Capacity sampled every ``epoch`` seconds — the 6-second epochs of
        Fig. 2."""
        return [self.capacity_at(i * epoch) for i in range(n_epochs)]


class ConstantLink(LinkModel):
    """Fixed-rate link, mostly for tests and calibration."""

    def __init__(self, rate_bps: float) -> None:
        self.rate_bps = float(positive("ConstantLink", "rate_bps", rate_bps))

    def capacity_at(self, t: float) -> float:
        if t < 0:
            raise ValueError("time must be non-negative")
        return max(self.rate_bps, MIN_CAPACITY)


class TraceLink(LinkModel):
    """Piecewise-constant capacity from a throughput trace.

    ``rates_bps[i]`` holds over ``[i * epoch, (i + 1) * epoch)``. The trace
    loops by default, matching how mahimahi replays packet-time traces in
    the emulation experiments (§5.2).
    """

    def __init__(
        self, rates_bps: Sequence[float], epoch: float = 1.0, loop: bool = True
    ) -> None:
        if not rates_bps:
            raise ValueError("trace must contain at least one epoch")
        owner = "TraceLink"
        positive(owner, "epoch", epoch)
        # Finite entries, however low, are floored as capacity always is.
        self.rates_bps = [
            max(float(finite(owner, f"rates_bps[{i}]", r)), MIN_CAPACITY)
            for i, r in enumerate(rates_bps)
        ]
        self.epoch = epoch
        self.loop = loop

    @property
    def duration(self) -> float:
        return len(self.rates_bps) * self.epoch

    def _index(self, t: float) -> int:
        try:
            return epoch_index(t, self.epoch)
        except (ValueError, OverflowError):
            self._check_finite(t)
            raise  # a negative time

    def next_change_after(self, t: float) -> float:
        index = self._index(t)
        if not self.loop and t >= self.duration:
            return math.inf  # holds its last rate forever
        boundary = (index + 1) * self.epoch
        if boundary <= t:
            # Once float spacing outgrows the epoch the next boundary
            # rounds back onto ``t``: a caller re-querying there would
            # never advance.
            raise ValueError(
                f"TraceLink: time {t!r} has no epoch boundary after it "
                f"at epoch {self.epoch!r} s"
            )
        return boundary

    def capacity_at(self, t: float) -> float:
        index = self._index(t)
        if self.loop:
            index %= len(self.rates_bps)
        else:
            # Past the end of a non-looping trace the link holds its last
            # recorded rate (mahimahi would stall; holding keeps sessions
            # terminating and is the documented contract).
            index = min(index, len(self.rates_bps) - 1)
        return self.rates_bps[index]


class _LazyEpochLink(LinkModel):
    """Base for stochastic links that realize capacity in blocks of epochs.

    A subclass supplies :meth:`_block`: the next ``k`` epochs' capacities,
    drawn from its generator in the order one epoch at a time would draw
    them.
    """

    def __init__(self, epoch: float, seed: "int | tuple") -> None:
        positive(type(self).__name__, "epoch", epoch)
        self.epoch = epoch
        self.rng = np.random.default_rng(seed)
        self._realized: List[float] = []

    def next_change_after(self, t: float) -> float:
        try:
            index = epoch_index(t, self.epoch)
        except (ValueError, OverflowError):
            self._check_finite(t)
            raise  # a negative time
        # Past the guard a boundary (index + 1) * epoch can also round
        # back onto ``t``.
        self._check_guard(t, index)
        return (index + 1) * self.epoch

    def _check_guard(self, t: float, index: int) -> None:
        """Raise, naming the link, if ``t``'s epoch ``index`` lies past the
        runaway guard."""
        if index >= _MAX_EPOCHS:
            raise ValueError(
                f"{type(self).__name__}: time {t!r} lies past the runaway "
                f"guard of {_MAX_EPOCHS} epochs of {self.epoch!r} s"
            )

    def _block(self, k: int) -> List[float]:
        raise NotImplementedError

    def realize_through(self, index: int) -> None:
        """Materialize epochs up to and including ``index``.

        Epochs are realized in a block that grows with the link's realized
        length (from ``_MIN_BLOCK`` to ``_MAX_BLOCK`` epochs past what was
        asked), so a long stream pays the block's vector operations once
        per many epochs and a short one reads few epochs ahead.  Realizing
        ahead is unobservable: the generator is private to the link and is
        consumed in the same order however epochs are materialized.
        """
        realized = self._realized
        n = len(realized)
        if index >= n:
            ahead = min(max(n, _MIN_BLOCK), _MAX_BLOCK)
            realized.extend(self._block(max(index + 1 - n, ahead)))

    def capacity_at(self, t: float) -> float:
        return self.epoch_at(t)[0]

    def epoch_at(self, t: float) -> Tuple[float, float]:
        try:
            index = epoch_index(t, self.epoch)
        except (ValueError, OverflowError):
            self._check_finite(t)
            raise  # a negative time
        realized = self._realized
        if index >= len(realized):
            self._check_guard(t, index)
            self.realize_through(index)
        return realized[index], (index + 1) * self.epoch


class MarkovLink(_LazyEpochLink):
    """CS2P-style link: a small set of discrete throughput states with
    geometric dwell times (Fig. 2a).

    Parameters
    ----------
    states_bps:
        The discrete throughput levels.
    switch_probability:
        Per-epoch probability of jumping to a different state.
    jitter_sigma:
        Small relative noise within a state (CS2P's states are bands, not
        exact constants).
    """

    def __init__(
        self,
        states_bps: Sequence[float],
        switch_probability: float = 0.05,
        jitter_sigma: float = 0.02,
        epoch: float = 1.0,
        seed: "int | tuple" = 0,
    ) -> None:
        super().__init__(epoch, seed)
        if not states_bps:
            raise ValueError("need at least one state")
        owner = "MarkovLink"
        # A state at or below zero would be floored to MIN_CAPACITY: a
        # link that takes hours per megabyte, not the level asked for.
        self.states_bps = [
            float(positive(owner, f"states_bps[{i}]", s))
            for i, s in enumerate(states_bps)
        ]
        probability(owner, "switch_probability", switch_probability)
        non_negative(owner, "jitter_sigma", jitter_sigma)
        self.switch_probability = switch_probability
        self.jitter_sigma = jitter_sigma
        self._state = int(self.rng.integers(len(self.states_bps)))

    def _block(self, k: int) -> List[float]:
        rng = self.rng
        random, standard_normal = rng.random, rng.standard_normal
        states = self.states_bps
        switching = len(states) > 1
        p = self.switch_probability
        jitter = float(self.jitter_sigma)
        state = self._state
        bases: List[float] = []
        noise: List[float] = []
        for _ in range(k):
            if switching and random() < p:
                state = int(rng.choice([i for i in range(len(states)) if i != state]))
            bases.append(states[state])
            # numpy's normal(0, s) is 0.0 + s * standard_normal(), bit for bit.
            noise.append(0.0 + jitter * standard_normal())
        self._state = state
        capacity = np.array(bases) * np.exp(np.array(noise))
        return np.maximum(capacity, MIN_CAPACITY).tolist()


class HeavyTailLink(_LazyEpochLink):
    """Puffer-style link: continuous mean-reverting evolution with deep fades.

    Log-capacity follows an Ornstein–Uhlenbeck process around a per-session
    base level; independently, the link occasionally enters a multi-epoch
    *fade* during which capacity collapses by 1–2 orders of magnitude. Fades
    are what make rebuffering a rare-but-heavy-tailed phenomenon: only ~3% of
    Puffer streams stall at all, but those that do can stall badly (§3.4).

    Parameters
    ----------
    base_bps:
        Session-level mean capacity.
    sigma:
        Stationary std of log-capacity fluctuations.
    reversion:
        Per-epoch mean-reversion rate in (0, 1].
    fade_rate:
        Per-epoch probability of entering a fade.
    fade_depth_log:
        Mean of the (exponential) log-attenuation during fades; 2.3 ≈ 10×.
    fade_duration_epochs:
        Mean geometric duration of a fade, in epochs.
    fade_floor_median_bps / fade_floor_sigma:
        Fades bottom out at a per-fade residual capacity drawn log-normally
        around the median — a congested link rarely delivers literally
        nothing, so the lowest ladder rung usually remains (barely)
        streamable and recovery behaviour differentiates the schemes.
    """

    def __init__(
        self,
        base_bps: float,
        sigma: float = 0.35,
        reversion: float = 0.12,
        fade_rate: float = 0.004,
        fade_depth_log: float = 2.3,
        fade_duration_epochs: float = 8.0,
        fade_floor_median_bps: float = 3e5,
        fade_floor_sigma: float = 0.8,
        fade_onset_epochs: int = 3,
        epoch: float = 1.0,
        seed: "int | tuple" = 0,
    ) -> None:
        super().__init__(epoch, seed)
        owner = "HeavyTailLink"
        self.base_bps = float(positive(owner, "base_bps", base_bps))
        if probability(owner, "reversion", reversion) <= 0.0:
            raise ValueError("reversion must lie in (0, 1]")
        probability(owner, "fade_rate", fade_rate)
        if finite(owner, "fade_duration_epochs", fade_duration_epochs) < 1.0:
            raise ValueError("fade duration must be at least one epoch")
        non_negative(owner, "sigma", sigma)
        non_negative(owner, "fade_depth_log", fade_depth_log)
        positive(owner, "fade_floor_median_bps", fade_floor_median_bps)
        non_negative(owner, "fade_floor_sigma", fade_floor_sigma)
        self.sigma = sigma
        self.reversion = reversion
        self.fade_rate = fade_rate
        self.fade_depth_log = fade_depth_log
        self.fade_duration_epochs = fade_duration_epochs
        self.fade_floor_median_bps = fade_floor_median_bps
        self.fade_floor_sigma = fade_floor_sigma
        self.fade_onset_epochs = whole(
            owner, "fade_onset_epochs", fade_onset_epochs
        )
        # Innovation scaled so the stationary std of log-capacity is sigma.
        self._innovation_sigma = sigma * np.sqrt(1.0 - (1.0 - reversion) ** 2)
        self._log_dev = float(self.rng.normal(0.0, sigma))
        self._fade_schedule: List[float] = []
        self._fade_floor_bps = 0.0

    def _start_fade(self) -> None:
        """Schedule a fade: a gradual onset ramp, the deep phase, recovery.

        Real congestion events have precursors — queues build and delivery
        rates sag before throughput collapses — which is what lets
        congestion-aware predictors (Fugu's TCP statistics) react a chunk
        or two before buffer-occupancy signals do.
        """
        depth = float(self.rng.exponential(self.fade_depth_log))
        attenuation = float(np.exp(-max(depth, 0.7)))
        self._fade_floor_bps = float(
            self.rng.lognormal(
                np.log(self.fade_floor_median_bps), self.fade_floor_sigma
            )
        )
        deep_epochs = 1 + int(self.rng.geometric(1.0 / self.fade_duration_epochs))
        schedule: List[float] = []
        for step in range(1, self.fade_onset_epochs + 1):
            schedule.append(attenuation ** (step / (self.fade_onset_epochs + 1)))
        schedule.extend([attenuation] * deep_epochs)
        # Recovery is quicker than onset (congestion clears abruptly).
        schedule.append(float(np.sqrt(attenuation)))
        self._fade_schedule = schedule

    def _block(self, k: int) -> List[float]:
        """``k`` epochs: the Ornstein–Uhlenbeck step and the fade schedule
        over Python floats, one epoch at a time (a fade can start in any
        of them), then one ``np.exp`` over the block and the attenuation
        and fade floor over its faded epochs."""
        rng = self.rng
        random, standard_normal = rng.random, rng.standard_normal
        keep = float(1.0 - self.reversion)
        innovation = float(self._innovation_sigma)
        fade_rate = self.fade_rate
        log_dev = self._log_dev
        schedule = self._fade_schedule
        floor = min(self._fade_floor_bps, self.base_bps)
        logs: List[float] = []
        faded: List[int] = []
        attenuations: List[float] = []
        floors: List[float] = []
        for i in range(k):
            # numpy's normal(0, s) is 0.0 + s * standard_normal(), bit for bit.
            log_dev = keep * log_dev + (0.0 + innovation * standard_normal())
            logs.append(log_dev)
            if schedule:
                attenuation = schedule.pop(0)
                if attenuation < 1.0:
                    faded.append(i)
                    attenuations.append(attenuation)
                    floors.append(floor)
            elif random() < fade_rate:
                self._start_fade()
                schedule = self._fade_schedule
                floor = min(self._fade_floor_bps, self.base_bps)
        self._log_dev = log_dev
        capacity = np.exp(logs)
        capacity *= self.base_bps
        if faded:
            capacity[faded] = np.maximum(capacity[faded] * attenuations, floors)
        return np.maximum(capacity, MIN_CAPACITY, out=capacity).tolist()
