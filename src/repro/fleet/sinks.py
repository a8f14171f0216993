"""Streaming aggregation sinks: O(1)-memory, *exactly*-merging sketches.

The fleet runner consumes each :class:`~repro.streaming.session.StreamResult`
as it completes, folds it into per-scheme sinks, and discards it — memory is
independent of how many sessions the deployment runs.  The hard requirement
(inherited from the PR 1/PR 2 determinism contract) is that the final dump
be **byte-identical** for any worker count and across kill/resume at any
point.  Floating-point addition is not associative, so an ordinary
float-accumulator sink would make the dump depend on how sessions were
grouped into chunks.  Every accumulator here therefore merges *exactly*:

* :class:`ExactSum` — a float accumulator that holds its running total as
  an **exact dyadic rational** — an integer times a power of two (every
  finite IEEE-754 double is one, via ``math.frexp``; so are all products
  of doubles).  Addition is exact integer addition after aligning the
  exponents: associative, commutative, no rounding.  ``add_product``
  accumulates products of doubles without first rounding them to a
  double, which keeps second moments exact under the catastrophic
  cancellation of ``E[x²] - mean²``.  The total converts back
  to the nearest double only at report time (correctly rounded).
* :class:`FleetHistogram` — the obs layer's log-binned
  :class:`~repro.obs.registry.LogHistogram` with an :class:`ExactSum` total.
* :class:`StreamingMoments` / :class:`WeightedMoments` — first and second
  (weighted) raw moments over :class:`ExactSum` fields; means, standard
  errors, and the §3.4 interval formulas are evaluated exactly in rational
  arithmetic and rounded once.

Because every merge is exact integer arithmetic, sink merging is truly
associative *and* permutation-invariant (property-tested in
``tests/fleet/test_sink_properties.py``) — "merged in session-id order" is
then a convention for log readability, not a correctness requirement.
Each aggregate declares its state once (:class:`ExactAggregate`), and
loading is strict: every count goes through :func:`repro.fields.whole`, so
a checkpoint holding 2.5, ``true`` or -3 raises naming the field instead of
resuming into a wrong dump.

Confidence intervals: bootstrap resampling needs the full sample, which a
constant-memory sink cannot retain.  The streaming sink reports the paper's
*weighted-standard-error* interval for SSIM (the same formula as
:func:`repro.analysis.stats.weighted_mean_ci`), a ratio-estimator
(delta-method) normal interval for the stall ratio, and a normal interval
for mean session duration.  All three take their z from
:func:`repro.analysis.stats.normal_z` — a constant at the default 95 % level,
so a fleet run to its dump imports no scipy; ``scipy.stats`` is imported at
the call for any other level (DESIGN.md, "Imports at the use site").
Tolerances vs the exact list-based statistics are documented in
EXPERIMENTS.md and enforced by the property tests: point estimates agree to
~1e-12 relative; normal-approximation CIs agree with their list-based
counterparts to ~1e-9 and bracket the same point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, ClassVar, Dict, List, Optional, Tuple, Type, TypeVar

from repro.analysis.bootstrap import ConfidenceInterval
from repro.analysis.summary import SchemeSummary, StreamAggregator
from repro.analysis.stats import normal_z, stream_years
from repro.experiment.consort import EXCLUDED, ConsortArm
from repro.fields import whole
from repro.obs.registry import HistogramSpec, LogHistogram, TIME_SPEC
from repro.streaming.session import StreamResult

SINK_SCHEMA_VERSION = 1
"""Version of the sink-state JSON layout (checkpoints and metrics dumps)."""

_SCALE_BITS = 1074
"""Every finite double is ``m * 2**e`` with ``e >= -1074``; the legacy
``ExactSum`` serialization is the total scaled by ``2**1074``."""

_TWO_53 = float(1 << 53)

_ARM_TALLIES = ("streams_assigned", *EXCLUDED, "truncated_loss_of_contact")
"""The :class:`~repro.experiment.consort.ConsortArm` tallies a scheme sink
folds per session, under the same names."""

_A = TypeVar("_A", bound="ExactAggregate")


# Histogram layouts for the distributions the fleet tracks.  Reusing the
# log-binned layout from repro.obs keeps every shard's bins identical by
# construction, so merging is integer addition of counts.
WATCH_TIME_SPEC = TIME_SPEC
"""Stream watch times: 1 ms .. 1000 s (the obs layer's duration layout)."""

DURATION_SPEC = HistogramSpec(lo=1.0, hi=1e5, n_bins=50)
"""Session time-on-site in seconds: 1 s .. ~28 h, 10 bins per decade."""

STALL_RATIO_SPEC = HistogramSpec(lo=1e-4, hi=1.0, n_bins=40)
"""Per-stream stall ratios: 0.01% .. 100%, 10 bins per decade."""

SSIM_SPEC = HistogramSpec(lo=1.0, hi=100.0, n_bins=40)
"""Per-stream mean SSIM in dB (log bins; typical values 5–25 dB)."""


def _dyadic(value: float) -> Tuple[int, int]:
    """``(m, e)`` with ``m * 2**e == value`` exactly: ``frexp``'s fraction
    times ``2**53`` is an integer for every finite double, subnormals
    included."""
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"ExactSum cannot absorb {value!r}")
    fraction, exponent = math.frexp(value)
    return int(fraction * _TWO_53), exponent - 53


class ExactSum:
    """Exact, associative, commutative accumulator of finite doubles.

    Every finite double is ``m * 2**e`` with integers ``m`` and ``e >=
    -1074``, and so is every product of doubles and every sum of such
    products.  The running total is held in exactly that form, an integer
    mantissa and a power-of-two exponent: ``add``, ``add_product`` and
    ``merge`` align the two exponents by shifting one mantissa left and
    add integers, so no rounding ever happens — and no gcd is ever
    taken — until :meth:`value` converts back to the nearest double.
    :meth:`add_product` exists because forming ``x * y`` in floating point
    *before* accumulating would round, and that single rounding is
    catastrophically amplified by the cancellation in second-moment
    formulas (``E[x²] - mean²``); multiplying exactly keeps the whole
    moment pipeline exact.  The pair is not normalized while it
    accumulates (equal totals may hold different pairs); :meth:`fraction`,
    the hex ``numerator/denominator`` serialization, ``==`` and ``hash``
    all go through the reduced rational, so each equals what the same
    total held as a :class:`~fractions.Fraction` gives — dump and
    checkpoint bytes depend on it.
    """

    __slots__ = ("_mantissa", "_exponent")

    def __init__(self, mantissa: int = 0, exponent: int = 0) -> None:
        """The total ``mantissa * 2**exponent`` (zero by default)."""
        self._mantissa = mantissa
        self._exponent = exponent

    def _absorb(self, mantissa: int, exponent: int) -> None:
        shift = exponent - self._exponent
        if shift >= 0:
            self._mantissa += mantissa << shift
        else:
            self._mantissa = (self._mantissa << -shift) + mantissa
            self._exponent = exponent

    def add(self, value: float) -> None:
        self._absorb(*_dyadic(value))

    def add_product(self, *factors: float) -> None:
        """Add the *exact* product of the factors (no intermediate
        float rounding — the difference between an exact and a merely
        order-independent second moment)."""
        mantissa, exponent = 1, 0
        for factor in factors:
            m, e = _dyadic(factor)
            mantissa *= m
            exponent += e
        self._absorb(mantissa, exponent)

    def merge(self, other: "ExactSum") -> None:
        self._absorb(other._mantissa, other._exponent)

    def value(self) -> float:
        """The total, correctly rounded to the nearest double (integer
        true division and ``int.__float__`` both round correctly)."""
        if self._exponent >= 0:
            return float(self._mantissa << self._exponent)
        return self._mantissa / (1 << -self._exponent)

    def _reduced(self) -> Tuple[int, int]:
        """``(numerator, denominator)`` of the total in lowest terms; the
        denominator is a power of two."""
        mantissa, exponent = self._mantissa, self._exponent
        if mantissa == 0:
            return 0, 1
        zeros = (mantissa & -mantissa).bit_length() - 1
        mantissa >>= zeros
        exponent += zeros
        if exponent >= 0:
            return mantissa << exponent, 1
        return mantissa, 1 << -exponent

    def fraction(self) -> Fraction:
        """The total as an exact rational (for exact downstream algebra)."""
        return Fraction(*self._reduced())

    def is_zero(self) -> bool:
        return self._mantissa == 0

    def to_dict(self) -> str:
        # Compact canonical form: sign + hex numerator, hex denominator,
        # in lowest terms.
        numerator, denominator = self._reduced()
        sign = "-" if numerator < 0 else ""
        return (
            f"{sign}{format(abs(numerator), 'x')}/{format(denominator, 'x')}"
        )

    @classmethod
    def from_dict(cls, data: str) -> "ExactSum":
        if "/" in data:
            numerator_hex, denominator_hex = data.split("/", 1)
            denominator = int(denominator_hex, 16)
            if denominator <= 0 or denominator & (denominator - 1):
                raise ValueError(
                    "ExactSum denominator must be a power of two, "
                    f"got {data!r}"
                )
            return cls(int(numerator_hex, 16), 1 - denominator.bit_length())
        # Legacy scaled-integer form (multiples of 2**-1074).
        return cls(int(data, 16), -_SCALE_BITS)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ExactSum):
            return False
        return other._reduced() == self._reduced()

    def __hash__(self) -> int:
        return hash(self.fraction())

    def __repr__(self) -> str:
        return f"ExactSum({self.value()!r})"


class ExactAggregate:
    """An exactly-merging aggregate whose state is the fields its class
    body declares (a dataclass), in the order it saves them.

    ``FIELDS`` pairs each field with whether it is declared ``int``.  An
    ``int`` field is a count (``COUNTS``): a merge adds it, it is saved as
    itself and it loads through :func:`repro.fields.whole`, so a corrupt
    count raises naming the field.  Any other field (``PARTS``) has its
    own ``merge``, ``to_dict`` and ``from_dict``.  ``KEY`` names the field
    a merge must match; it is saved first and is ``__init__``'s one
    argument on load.  The tuples are worked out once, at class creation
    (per call they tripled the cost of ``FleetSink.merge``), and the state
    is read and written through the instance ``__dict__``.
    """

    KEY: ClassVar[Optional[str]] = None
    FIELDS: ClassVar[Tuple[Tuple[str, bool], ...]] = ()
    COUNTS: ClassVar[Tuple[str, ...]] = ()
    PARTS: ClassVar[Tuple[str, ...]] = ()

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        declared = vars(cls).get("__annotations__", {})
        cls.FIELDS = tuple(
            (name, declared[name] in (int, "int"))
            for name in declared if name != cls.KEY
        )
        cls.COUNTS = tuple(name for name, count in cls.FIELDS if count)
        cls.PARTS = tuple(name for name, count in cls.FIELDS if not count)

    def merge(self, other: "ExactAggregate") -> None:
        key = self.KEY
        if key is not None and getattr(other, key) != getattr(self, key):
            raise ValueError(
                f"cannot merge {type(self).__name__} for "
                f"{getattr(other, key)!r} into {getattr(self, key)!r}"
            )
        mine, theirs = vars(self), vars(other)
        for name in self.COUNTS:
            mine[name] += theirs[name]
        for name in self.PARTS:
            mine[name].merge(theirs[name])

    def to_dict(self) -> dict:
        key, state = self.KEY, vars(self)
        data = {} if key is None else {key: state[key]}
        for name, count in self.FIELDS:
            data[name] = state[name] if count else state[name].to_dict()
        return data

    @classmethod
    def from_dict(cls: Type[_A], data: dict) -> _A:
        key = cls.KEY
        args: Tuple[str, ...] = () if key is None else (str(data[key]),)
        aggregate = cls(*args)
        state, owner = vars(aggregate), cls.__name__
        for name in cls.COUNTS:
            state[name] = whole(owner, name, data[name])
        for name in cls.PARTS:
            state[name] = type(state[name]).from_dict(data[name])
        return aggregate


def _mean_ci(
    moments: Any, confidence: float, empty: bool
) -> Optional[ConfidenceInterval]:
    """Normal-approximation interval around ``moments.mean()`` with
    ``moments.standard_error()`` (``None`` if ``empty``; zero-width below
    n=2)."""
    z = normal_z(confidence)
    if empty:
        return None
    point = moments.mean()
    if moments.n < 2:
        return ConfidenceInterval(
            point=point, low=point, high=point, confidence=confidence
        )
    half = z * moments.standard_error()
    return ConfidenceInterval(
        point=point, low=point - half, high=point + half, confidence=confidence
    )


@dataclass(eq=False)
class StreamingMoments(ExactAggregate):
    """Count / exact sum / exact sum of squares of an unweighted sample."""

    n: int = 0
    sum: ExactSum = field(default_factory=ExactSum)
    sum_sq: ExactSum = field(default_factory=ExactSum)

    def observe(self, value: float) -> None:
        value = float(value)
        self.n += 1
        self.sum.add(value)
        self.sum_sq.add_product(value, value)

    def mean(self) -> float:
        if self.n == 0:
            return float("nan")
        return float(self.sum.fraction() / self.n)

    def standard_error(self) -> float:
        """SE of the mean (sample variance over n), ``nan`` below n=2."""
        if self.n < 2:
            return float("nan")
        mean = self.sum.fraction() / self.n
        var = (self.sum_sq.fraction() / self.n - mean * mean) * Fraction(
            self.n, self.n - 1
        )
        if var < 0:  # exact arithmetic: only possible at var == 0 - epsilon
            var = Fraction(0)
        return math.sqrt(float(var)) / math.sqrt(self.n)

    def mean_ci(self, confidence: float = 0.95) -> Optional[ConfidenceInterval]:
        return _mean_ci(self, confidence, empty=self.n == 0)


@dataclass(eq=False)
class WeightedMoments(ExactAggregate):
    """Exact raw moments for §3.4's duration-weighted mean and its
    weighted standard error.

    Tracks ``n, Σw, Σwx, Σw², Σw²x, Σw²x²`` exactly; the weighted-SE
    formula of :func:`repro.analysis.stats.weighted_standard_error`
    (``SE² = Σw²(x-x̄)² / (Σw)² * n/(n-1)``) expands into those sums and is
    evaluated in rational arithmetic, so the only rounding is the final
    conversion to double.
    """

    n: int = 0
    sum_w: ExactSum = field(default_factory=ExactSum)
    sum_wx: ExactSum = field(default_factory=ExactSum)
    sum_w2: ExactSum = field(default_factory=ExactSum)
    sum_w2x: ExactSum = field(default_factory=ExactSum)
    sum_w2x2: ExactSum = field(default_factory=ExactSum)

    def observe(self, value: float, weight: float) -> None:
        value = float(value)
        weight = float(weight)
        if weight < 0:
            raise ValueError("weights must be non-negative")
        self.n += 1
        self.sum_w.add(weight)
        self.sum_wx.add_product(weight, value)
        self.sum_w2.add_product(weight, weight)
        self.sum_w2x.add_product(weight, weight, value)
        self.sum_w2x2.add_product(weight, weight, value, value)

    def mean(self) -> float:
        if self.n == 0 or self.sum_w.is_zero():
            return float("nan")
        return float(self.sum_wx.fraction() / self.sum_w.fraction())

    def standard_error(self) -> float:
        if self.n < 2 or self.sum_w.is_zero():
            return float("nan")
        mean = self.sum_wx.fraction() / self.sum_w.fraction()
        # Σ w²(x - x̄)² = Σw²x² - 2 x̄ Σw²x + x̄² Σw²   (exact expansion)
        numerator = (
            self.sum_w2x2.fraction()
            - 2 * mean * self.sum_w2x.fraction()
            + mean * mean * self.sum_w2.fraction()
        )
        if numerator < 0:
            numerator = Fraction(0)
        se2 = (
            numerator
            / (self.sum_w.fraction() * self.sum_w.fraction())
            * Fraction(self.n, self.n - 1)
        )
        return math.sqrt(float(se2))

    def mean_ci(self, confidence: float = 0.95) -> Optional[ConfidenceInterval]:
        empty = self.n == 0 or self.sum_w.is_zero()
        return _mean_ci(self, confidence, empty)


class FleetHistogram(LogHistogram):
    """:class:`repro.obs.registry.LogHistogram`'s bins with an exact value
    total.  Unlike :class:`repro.obs.Histogram` (whose float ``sum`` is
    order-dependent), the total is an :class:`ExactSum`, and the count is
    derived from the bins."""

    __slots__ = ("total",)

    def __init__(self, spec: HistogramSpec) -> None:
        super().__init__(spec)
        self.total = ExactSum()

    @property
    def count(self) -> int:
        return self.observed()

    def observe(self, value: float) -> None:
        super().observe(value)
        self.total.add(value)

    def merge(self, other: "FleetHistogram") -> None:  # type: ignore[override]
        super().merge(other)
        self.total.merge(other.total)

    def mean(self) -> float:
        n = self.count
        return float(self.total.fraction() / n) if n else 0.0

    def to_dict(self) -> dict:
        return {**super().to_dict(), "total": self.total.to_dict()}

    @classmethod
    def from_dict(cls, data: dict) -> "FleetHistogram":
        hist = super().from_dict(data)
        hist.total = ExactSum.from_dict(data["total"])
        return hist


@dataclass(eq=False)
class StreamingSchemeSink(ExactAggregate, StreamAggregator):
    """One scheme's O(1)-memory aggregate: quality, stalls, exclusions.

    Implements the :class:`repro.analysis.summary.StreamAggregator`
    interface.  ``observe_stream`` expects *eligible* streams (the caller
    applies the CONSORT filter, as with the batch path); exclusion counters
    arrive separately via :meth:`observe_exclusions` from the per-session
    CONSORT arms.  Its state merges, saves and loads field by field
    (:class:`ExactAggregate`); a merge refuses another scheme's sink.
    """

    KEY = "scheme"
    scheme: str
    # Session-level accounting.
    sessions: int = 0
    streams_assigned: int = 0
    duration: StreamingMoments = field(default_factory=StreamingMoments)
    duration_hist: FleetHistogram = field(
        default_factory=lambda: FleetHistogram(DURATION_SPEC)
    )
    # CONSORT tallies (Fig. A1), named as on ConsortArm.
    did_not_begin: int = 0
    watch_time_under_4s: int = 0
    slow_video_decoder: int = 0
    truncated_loss_of_contact: int = 0
    # Eligible-stream quality aggregates (Fig. 1 columns).
    n_streams: int = 0
    watch: ExactSum = field(default_factory=ExactSum)
    stall: ExactSum = field(default_factory=ExactSum)
    stall_sq: ExactSum = field(default_factory=ExactSum)
    watch_sq: ExactSum = field(default_factory=ExactSum)
    stall_watch: ExactSum = field(default_factory=ExactSum)
    ssim: WeightedMoments = field(default_factory=WeightedMoments)
    variation: WeightedMoments = field(default_factory=WeightedMoments)
    bitrate: WeightedMoments = field(default_factory=WeightedMoments)
    startup: StreamingMoments = field(default_factory=StreamingMoments)
    first_ssim: StreamingMoments = field(default_factory=StreamingMoments)
    streams_with_stall: int = 0
    watch_hist: FleetHistogram = field(
        default_factory=lambda: FleetHistogram(WATCH_TIME_SPEC)
    )
    stall_ratio_hist: FleetHistogram = field(
        default_factory=lambda: FleetHistogram(STALL_RATIO_SPEC)
    )
    ssim_hist: FleetHistogram = field(
        default_factory=lambda: FleetHistogram(SSIM_SPEC)
    )

    # ------------------------------------------------------------------
    # StreamAggregator interface
    # ------------------------------------------------------------------
    def observe_stream(self, stream: StreamResult) -> None:
        self.n_streams += 1
        watch = float(stream.watch_time)
        stall = float(stream.stall_time)
        self.watch.add(watch)
        self.stall.add(stall)
        self.stall_sq.add_product(stall, stall)
        self.watch_sq.add_product(watch, watch)
        self.stall_watch.add_product(stall, watch)
        self.watch_hist.observe(watch)
        self.stall_ratio_hist.observe(stream.stall_ratio)
        if stream.had_stall:
            self.streams_with_stall += 1
        mean_ssim = stream.mean_ssim_db
        if not math.isnan(mean_ssim):
            self.ssim.observe(mean_ssim, watch)
            self.variation.observe(stream.ssim_variation_db, watch)
            self.bitrate.observe(stream.mean_bitrate_bps, watch)
            self.ssim_hist.observe(mean_ssim)
        if stream.startup_delay is not None:
            self.startup.observe(stream.startup_delay)
        if stream.records:
            self.first_ssim.observe(stream.first_chunk_ssim_db)

    def observe_session_duration(self, duration_s: float) -> None:
        self.sessions += 1
        self.duration.observe(duration_s)
        self.duration_hist.observe(duration_s)

    def observe_exclusions(self, arm: ConsortArm) -> None:
        """Fold one session's CONSORT arm (Fig. A1): its streams and each
        exclusion tally."""
        for name in _ARM_TALLIES:
            setattr(self, name, getattr(self, name) + getattr(arm, name))

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def stall_ratio_ci(
        self, confidence: float = 0.95
    ) -> Optional[ConfidenceInterval]:
        """Ratio-estimator (delta-method) normal interval for the aggregate
        stall ratio ``Σstall / Σwatch``.

        ``SE = sqrt(n/(n-1) * Σ(sᵢ - R·wᵢ)²) / Σw`` with the residual sum
        expanded into exact streaming moments.  A normal approximation —
        the batch path's bootstrap CI is the reference; agreement is
        asymptotic, not exact (documented in EXPERIMENTS.md).
        """
        z = normal_z(confidence)
        if self.n_streams == 0:
            return None
        total_watch = self.watch.fraction()
        if total_watch <= 0:
            return ConfidenceInterval(
                point=0.0, low=0.0, high=0.0, confidence=confidence
            )
        ratio = self.stall.fraction() / total_watch
        point = float(ratio)
        if self.n_streams < 2:
            return ConfidenceInterval(
                point=point, low=point, high=point, confidence=confidence
            )
        # Σ(sᵢ - R wᵢ)² = Σs² - 2R Σsw + R² Σw²   (exact)
        residual_sq = (
            self.stall_sq.fraction()
            - 2 * ratio * self.stall_watch.fraction()
            + ratio * ratio * self.watch_sq.fraction()
        )
        if residual_sq < 0:
            residual_sq = Fraction(0)
        n = self.n_streams
        se = math.sqrt(float(residual_sq) * n / (n - 1)) / float(total_watch)
        half = z * se
        return ConfidenceInterval(
            point=point,
            low=max(0.0, point - half),
            high=point + half,
            confidence=confidence,
        )

    def summary(self) -> SchemeSummary:
        if self.n_streams == 0:
            raise ValueError(f"no eligible streams for scheme {self.scheme!r}")
        stall_ci = self.stall_ratio_ci()
        ssim_ci = self.ssim.mean_ci()
        if ssim_ci is None:
            nan = float("nan")
            ssim_ci = ConfidenceInterval(point=nan, low=nan, high=nan)
        assert stall_ci is not None
        return SchemeSummary(
            scheme=self.scheme,
            n_streams=self.n_streams,
            stream_years=stream_years(self.watch.value()),
            stall_ratio=stall_ci,
            mean_ssim_db=ssim_ci,
            ssim_variation_db=self.variation.mean(),
            mean_bitrate_bps=self.bitrate.mean(),
            mean_session_duration_s=self.duration.mean_ci(),
            startup_delay_s=self.startup.mean(),
            first_chunk_ssim_db=self.first_ssim.mean(),
            fraction_streams_with_stall=(
                self.streams_with_stall / self.n_streams
            ),
        )


class FleetSink:
    """The whole deployment's aggregate: per-scheme sinks plus workload
    accounting.  Everything merges exactly; the canonical dict (sorted
    keys) is the byte-identity surface checkpoints and dumps serialize."""

    HOURS_PER_DAY = 24

    def __init__(self) -> None:
        self.sessions = 0
        self.streams = 0
        self.schemes: Dict[str, StreamingSchemeSink] = {}
        self.sessions_by_day: Dict[int, int] = {}
        self.arrivals_by_hour: List[int] = [0] * self.HOURS_PER_DAY
        self.sim_watch_s = ExactSum()
        """Total simulated viewing across all schemes (stream-years gauge)."""

    def scheme(self, name: str) -> StreamingSchemeSink:
        sink = self.schemes.get(name)
        if sink is None:
            sink = StreamingSchemeSink(name)
            self.schemes[name] = sink
        return sink

    def merge(self, other: "FleetSink") -> None:
        self.sessions += other.sessions
        self.streams += other.streams
        for name in sorted(other.schemes):
            self.scheme(name).merge(other.schemes[name])
        for day in sorted(other.sessions_by_day):
            self.sessions_by_day[day] = (
                self.sessions_by_day.get(day, 0) + other.sessions_by_day[day]
            )
        for hour, count in enumerate(other.arrivals_by_hour):
            self.arrivals_by_hour[hour] += count
        self.sim_watch_s.merge(other.sim_watch_s)

    @property
    def stream_years(self) -> float:
        return stream_years(max(0.0, self.sim_watch_s.value()))

    def to_dict(self) -> dict:
        return {
            "schema_version": SINK_SCHEMA_VERSION,
            "sessions": self.sessions,
            "streams": self.streams,
            "schemes": {
                name: self.schemes[name].to_dict()
                for name in sorted(self.schemes)
            },
            "sessions_by_day": {
                str(day): self.sessions_by_day[day]
                for day in sorted(self.sessions_by_day)
            },
            "arrivals_by_hour": list(self.arrivals_by_hour),
            "sim_watch_s": self.sim_watch_s.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FleetSink":
        version = int(data.get("schema_version", 0))
        if version != SINK_SCHEMA_VERSION:
            raise ValueError(
                f"unsupported sink schema version {version} "
                f"(expected {SINK_SCHEMA_VERSION})"
            )
        sink = cls()
        owner = cls.__name__
        sink.sessions = whole(owner, "sessions", data["sessions"])
        sink.streams = whole(owner, "streams", data["streams"])
        for name in sorted(data["schemes"]):
            sink.schemes[name] = StreamingSchemeSink.from_dict(
                data["schemes"][name]
            )
        sink.sessions_by_day = {
            int(day): whole(owner, f"sessions_by_day[{day}]", count)
            for day, count in sorted(data["sessions_by_day"].items())
        }
        hours = [
            whole(owner, f"arrivals_by_hour[{h}]", n)
            for h, n in enumerate(data["arrivals_by_hour"])
        ]
        if len(hours) != cls.HOURS_PER_DAY:
            raise ValueError("arrivals_by_hour must have 24 entries")
        sink.arrivals_by_hour = hours
        sink.sim_watch_s = ExactSum.from_dict(data["sim_watch_s"])
        return sink

    def summaries(self) -> List[SchemeSummary]:
        """Per-scheme Fig. 1 rows for every scheme with eligible streams,
        in sorted scheme order."""
        return [
            self.schemes[name].summary()
            for name in sorted(self.schemes)
            if self.schemes[name].n_streams > 0
        ]
