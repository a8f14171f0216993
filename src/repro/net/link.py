"""Bottleneck link models.

A link model is a capacity process: ``capacity_at(t)`` returns the bottleneck
rate in bits per second at absolute time ``t``. All stochastic links generate
their capacity lazily, epoch by epoch, from a seeded generator, so a link is
deterministic given its construction arguments and can be queried at
arbitrary (non-decreasing or random-access) times.

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

MIN_CAPACITY = 1_000.0
"""Floor on link capacity (bits/s) so transmissions always terminate."""


def _finite(name: str, value: float) -> float:
    """``value`` as a float, or a ``ValueError`` naming the field: a NaN
    passes every ``<``/``>`` range check below and would come out of the
    link as a NaN transmission time."""
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return value


def _positive(name: str, value: float) -> float:
    value = _finite(name, value)
    if value <= 0:
        raise ValueError(f"{name} must be positive, got {value!r}")
    return value


def _non_negative(name: str, value: float) -> float:
    value = _finite(name, value)
    if value < 0:
        raise ValueError(f"{name} must be non-negative, got {value!r}")
    return value


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

    def sample_epochs(self, n_epochs: int, epoch: float = 6.0) -> List[float]:
        """Capacity sampled every ``epoch`` seconds — the 6-second epochs of
        Fig. 2."""
        return [self.capacity_at(i * epoch) for i in range(n_epochs)]


class ConstantLink(LinkModel):
    """Fixed-rate link, mostly for tests and calibration."""

    def __init__(self, rate_bps: float) -> None:
        self.rate_bps = _positive("rate_bps", rate_bps)

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
        _positive("epoch", epoch)
        # Finite entries, however low, are floored as capacity always is.
        self.rates_bps = [
            max(_finite(f"rates_bps[{i}]", r), MIN_CAPACITY)
            for i, r in enumerate(rates_bps)
        ]
        self.epoch = epoch
        self.loop = loop

    @property
    def duration(self) -> float:
        return len(self.rates_bps) * self.epoch

    def next_change_after(self, t: float) -> float:
        if t < 0:
            raise ValueError("time must be non-negative")
        if not self.loop and t >= self.duration:
            return math.inf  # holds its last rate forever
        return (epoch_index(t, self.epoch) + 1) * self.epoch

    def capacity_at(self, t: float) -> float:
        if t < 0:
            raise ValueError("time must be non-negative")
        index = epoch_index(t, self.epoch)
        if self.loop:
            index %= len(self.rates_bps)
        else:
            # Past the end of a non-looping trace the link holds its last
            # recorded rate (mahimahi would stall; holding keeps sessions
            # terminating and is the documented contract).
            index = min(index, len(self.rates_bps) - 1)
        return self.rates_bps[index]


class _LazyEpochLink(LinkModel):
    """Base for stochastic links that realize capacity one epoch at a time."""

    def __init__(self, epoch: float, seed: "int | tuple") -> None:
        _positive("epoch", epoch)
        self.epoch = epoch
        self.rng = np.random.default_rng(seed)
        self._realized: List[float] = []

    def next_change_after(self, t: float) -> float:
        if t < 0:
            raise ValueError("time must be non-negative")
        return (epoch_index(t, self.epoch) + 1) * self.epoch

    def _next_epoch_capacity(self) -> float:
        raise NotImplementedError

    def realize_through(self, index: int) -> None:
        """Materialize epochs up to and including ``index``.

        Realizing ahead is unobservable: the per-epoch generator is consumed
        in the same order regardless of when epochs are materialized.
        """
        while len(self._realized) <= index:
            self._realized.append(max(self._next_epoch_capacity(), MIN_CAPACITY))

    def capacity_at(self, t: float) -> float:
        return self.epoch_at(t)[0]

    def epoch_at(self, t: float) -> Tuple[float, float]:
        index = epoch_index(t, self.epoch)  # rejects t < 0
        realized = self._realized
        if index >= len(realized):
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
        if not 0.0 <= switch_probability <= 1.0:
            raise ValueError("switch_probability must lie in [0, 1]")
        # A state at or below zero would be floored to MIN_CAPACITY: a
        # link that takes hours per megabyte, not the level asked for.
        self.states_bps = [
            _positive(f"states_bps[{i}]", s) for i, s in enumerate(states_bps)
        ]
        self.switch_probability = switch_probability
        _non_negative("jitter_sigma", jitter_sigma)
        self.jitter_sigma = jitter_sigma
        self._state = int(self.rng.integers(len(self.states_bps)))

    def _next_epoch_capacity(self) -> float:
        if len(self.states_bps) > 1 and self.rng.random() < self.switch_probability:
            choices = [
                i for i in range(len(self.states_bps)) if i != self._state
            ]
            self._state = int(self.rng.choice(choices))
        base = self.states_bps[self._state]
        return base * float(np.exp(self.rng.normal(0.0, self.jitter_sigma)))


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
        self.base_bps = _positive("base_bps", base_bps)
        if not 0.0 < reversion <= 1.0:
            raise ValueError("reversion must lie in (0, 1]")
        if not 0.0 <= fade_rate <= 1.0:
            raise ValueError("fade_rate must lie in [0, 1]")
        if _finite("fade_duration_epochs", fade_duration_epochs) < 1.0:
            raise ValueError("fade duration must be at least one epoch")
        _non_negative("sigma", sigma)
        _non_negative("fade_depth_log", fade_depth_log)
        _positive("fade_floor_median_bps", fade_floor_median_bps)
        _non_negative("fade_floor_sigma", fade_floor_sigma)
        _finite("fade_onset_epochs", fade_onset_epochs)
        self.sigma = sigma
        self.reversion = reversion
        self.fade_rate = fade_rate
        self.fade_depth_log = fade_depth_log
        self.fade_duration_epochs = fade_duration_epochs
        self.fade_floor_median_bps = fade_floor_median_bps
        self.fade_floor_sigma = fade_floor_sigma
        self.fade_onset_epochs = int(fade_onset_epochs)
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

    def _next_epoch_capacity(self) -> float:
        self._log_dev = float(
            (1.0 - self.reversion) * self._log_dev
            + self.rng.normal(0.0, self._innovation_sigma)
        )
        if self._fade_schedule:
            attenuation = self._fade_schedule.pop(0)
        else:
            attenuation = 1.0
            if self.rng.random() < self.fade_rate:
                self._start_fade()
        capacity = self.base_bps * float(np.exp(self._log_dev)) * attenuation
        if attenuation < 1.0:
            capacity = max(capacity, min(self._fade_floor_bps, self.base_bps))
        return capacity
