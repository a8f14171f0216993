"""Session-arrival processes over simulated calendar days.

Puffer's data comes from a service that ran continuously: viewers arrive on
their own schedule, dense in the evening, sparse at 4 a.m., with occasional
surges when something newsworthy airs.  The workload generator reproduces
that shape as a seeded *non-homogeneous Poisson process*:

* a **diurnal** intensity ``base * (1 + amplitude * cos(...))`` peaking at
  ``peak_hour`` local time;
* optional **flash crowds** — time windows during which the intensity is
  multiplied (a popular live event);
* arrivals drawn by Lewis–Shedler **thinning**: candidates from a
  homogeneous Poisson process at the peak intensity, accepted with
  probability ``rate(t) / peak_rate``.

The whole arrival sequence is a pure function of :class:`WorkloadConfig`
(one seeded generator, no global state), so a resumed run regenerates it
exactly and skips the sessions already committed.  Arrival times only drive
*load accounting* (sessions per day, arrivals by hour); the simulation of a
session remains keyed on ``(trial_seed, session_id)`` exactly as in
:func:`repro.experiment.harness.run_session`, which is what keeps sessions
independent and the fleet embarrassingly parallel.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Iterator, List, Tuple

import numpy as np

from repro.fields import check, non_negative, positive, whole

SECONDS_PER_HOUR = 3600.0
SECONDS_PER_DAY = 86400.0

_ARRIVAL_STREAM = 0xF1EE7
"""Domain-separation constant folded into the arrival RNG seed so the
arrival process never replays draws any session makes."""


@dataclass(frozen=True)
class FlashCrowd:
    """A window of elevated arrival intensity (a popular live event)."""

    start_day: float
    """Window start, in fractional days from the start of the run."""

    duration_hours: float
    multiplier: float
    """Intensity multiplier inside the window (``>= 1``)."""

    KINDS = {
        "start_day": non_negative, "duration_hours": positive,
        "multiplier": positive,
    }

    def __post_init__(self) -> None:
        check(self)
        if self.multiplier < 1.0:
            raise ValueError("flash crowd multiplier must be >= 1")

    @property
    def start_s(self) -> float:
        return self.start_day * SECONDS_PER_DAY

    @property
    def end_s(self) -> float:
        return self.start_s + self.duration_hours * SECONDS_PER_HOUR

    def active_at(self, t_s: float) -> bool:
        return self.start_s <= t_s < self.end_s

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class WorkloadConfig:
    """Shape of the deployment's offered load."""

    days: float = 1.0
    """Simulated calendar horizon in days."""

    sessions_per_hour: float = 60.0
    """Baseline (daily-average) arrival intensity."""

    diurnal_amplitude: float = 0.6
    """Relative swing of the diurnal cycle, in ``[0, 1)``: intensity ranges
    over ``base * (1 ± amplitude)`` across the day."""

    peak_hour: float = 20.0
    """Hour of day (0–24) at which the diurnal cycle peaks."""

    flash_crowds: Tuple[FlashCrowd, ...] = field(default_factory=tuple)
    seed: int = 0
    """Seed of the arrival process (independent of the trial seed)."""

    KINDS = {
        "days": positive, "sessions_per_hour": positive,
        "diurnal_amplitude": non_negative, "peak_hour": non_negative,
        "seed": whole,
    }

    def __post_init__(self) -> None:
        check(self)
        if self.diurnal_amplitude >= 1.0:
            raise ValueError("diurnal_amplitude must lie in [0, 1)")
        if self.peak_hour >= 24.0:
            raise ValueError("peak_hour must lie in [0, 24)")
        # Tuple-coercion so configs built with lists still hash/compare.
        object.__setattr__(self, "flash_crowds", tuple(self.flash_crowds))

    # ------------------------------------------------------------------
    # Intensity function
    # ------------------------------------------------------------------
    @property
    def horizon_s(self) -> float:
        return self.days * SECONDS_PER_DAY

    def rate_per_hour(self, t_s: float) -> float:
        """Instantaneous arrival intensity (sessions/hour) at time ``t_s``."""
        hour_of_day = (t_s / SECONDS_PER_HOUR) % 24.0
        phase = 2.0 * math.pi * (hour_of_day - self.peak_hour) / 24.0
        rate = self.sessions_per_hour * (
            1.0 + self.diurnal_amplitude * math.cos(phase)
        )
        for crowd in self.flash_crowds:
            if crowd.active_at(t_s):
                rate *= crowd.multiplier
        return rate

    def peak_rate_per_hour(self) -> float:
        """Upper bound on :meth:`rate_per_hour` (the thinning envelope).

        The diurnal factor is bounded by ``1 + amplitude``.  The flash-crowd
        factor is the *exact* maximum over time of the product of the
        multipliers simultaneously active: the product is piecewise constant
        and only increases when a window opens (multipliers are ``>= 1``),
        so its maximum is attained at some crowd's ``start_s``.  Each
        candidate product is recomputed from scratch, so overlapping crowds
        no longer degrade thinning acceptance with the product of *all*
        multipliers.
        """
        bound = self.sessions_per_hour * (1.0 + self.diurnal_amplitude)
        best = 1.0
        for crowd in self.flash_crowds:
            product = 1.0
            for other in self.flash_crowds:
                if other.active_at(crowd.start_s):
                    product *= other.multiplier
            if product > best:
                best = product
        return bound * best

    def expected_sessions(self) -> float:
        """Mean of the total-arrival distribution (trapezoidal integral of
        the intensity; diagnostics only — the realized count is random)."""
        step_s = 60.0
        n_steps = int(math.ceil(self.horizon_s / step_s))
        total = 0.0
        for i in range(n_steps):
            lo = i * step_s
            hi = min(lo + step_s, self.horizon_s)
            mid = self.rate_per_hour((lo + hi) / 2.0)
            total += mid * (hi - lo) / SECONDS_PER_HOUR
        return total

    # ------------------------------------------------------------------
    # Serialization (checkpoint fingerprinting and CLI resume)
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "days": self.days,
            "sessions_per_hour": self.sessions_per_hour,
            "diurnal_amplitude": self.diurnal_amplitude,
            "peak_hour": self.peak_hour,
            "flash_crowds": [c.to_dict() for c in self.flash_crowds],
            "seed": self.seed,
        }


@dataclass(frozen=True)
class SessionArrival:
    """One accepted arrival: the session's id and its wall position in the
    simulated deployment calendar."""

    session_id: int
    time_s: float

    @property
    def day(self) -> int:
        return int(self.time_s // SECONDS_PER_DAY)

    @property
    def hour_of_day(self) -> float:
        return (self.time_s / SECONDS_PER_HOUR) % 24.0


class WorkloadGenerator:
    """Deterministic, restartable arrival stream.

    Iterating yields :class:`SessionArrival` objects with consecutive
    session ids starting at 0.  The sequence is a pure function of the
    config: two generators with equal configs yield identical arrivals, so
    a resumed run rebuilds the stream and skips ids below the checkpoint's
    ``next_session_id`` (regeneration costs two RNG draws per candidate —
    negligible next to simulating a session).
    """

    def __init__(self, config: WorkloadConfig) -> None:
        self.config = config

    def __iter__(self) -> Iterator[SessionArrival]:
        return self.arrivals()

    def arrivals(self, start_session_id: int = 0) -> Iterator[SessionArrival]:
        """Yield arrivals with ``session_id >= start_session_id``."""
        if start_session_id < 0:
            raise ValueError("start_session_id must be >= 0")
        config = self.config
        rng = np.random.default_rng((config.seed, _ARRIVAL_STREAM))
        peak_per_s = config.peak_rate_per_hour() / SECONDS_PER_HOUR
        t = 0.0
        session_id = 0
        while True:
            # Lewis–Shedler thinning: exponential candidate gaps at the
            # envelope rate, accepted with probability rate(t)/peak.
            t += float(rng.exponential(1.0 / peak_per_s))
            if t >= config.horizon_s:
                return
            accept = float(rng.random())
            if accept * peak_per_s * SECONDS_PER_HOUR > config.rate_per_hour(t):
                continue
            if session_id >= start_session_id:
                yield SessionArrival(session_id=session_id, time_s=t)
            session_id += 1

    def count(self) -> int:
        """Total number of arrivals over the horizon (one full replay)."""
        n = 0
        for _ in self.arrivals():
            n += 1
        return n

    def take(self, n: int) -> List[SessionArrival]:
        """The first ``n`` arrivals (testing convenience)."""
        out: List[SessionArrival] = []
        for arrival in self.arrivals():
            out.append(arrival)
            if len(out) >= n:
                break
        return out
