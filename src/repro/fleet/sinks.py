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
* :class:`FleetHistogram` — the fixed log-spaced bin layout of
  :class:`repro.obs.HistogramSpec` with integer bin counts and an
  :class:`ExactSum` value total.
* :class:`StreamingMoments` / :class:`WeightedMoments` — first and second
  (weighted) raw moments over :class:`ExactSum` fields; means, standard
  errors, and the §3.4 interval formulas are evaluated exactly in rational
  arithmetic and rounded once.

Because every merge is exact integer arithmetic, sink merging is truly
associative *and* permutation-invariant (property-tested in
``tests/fleet/test_sink_properties.py``) — "merged in session-id order" is
then a convention for log readability, not a correctness requirement.

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
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from repro.analysis.bootstrap import ConfidenceInterval
from repro.analysis.summary import SchemeSummary, StreamAggregator
from repro.analysis.stats import normal_z, stream_years
from repro.obs.registry import HistogramSpec, TIME_SPEC
from repro.streaming.session import StreamResult

SINK_SCHEMA_VERSION = 1
"""Version of the sink-state JSON layout (checkpoints and metrics dumps)."""

_SCALE_BITS = 1074
"""Every finite double is ``m * 2**e`` with ``e >= -1074``; the legacy
``ExactSum`` serialization is the total scaled by ``2**1074``."""

_TWO_53 = float(1 << 53)


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


class StreamingMoments:
    """Count / exact sum / exact sum of squares of an unweighted sample."""

    __slots__ = ("n", "sum", "sum_sq")

    def __init__(self) -> None:
        self.n = 0
        self.sum = ExactSum()
        self.sum_sq = ExactSum()

    def observe(self, value: float) -> None:
        value = float(value)
        self.n += 1
        self.sum.add(value)
        self.sum_sq.add_product(value, value)

    def merge(self, other: "StreamingMoments") -> None:
        self.n += other.n
        self.sum.merge(other.sum)
        self.sum_sq.merge(other.sum_sq)

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
        """Normal-approximation interval around the mean (``None`` if
        empty; zero-width below n=2)."""
        z = normal_z(confidence)
        if self.n == 0:
            return None
        point = self.mean()
        if self.n < 2:
            return ConfidenceInterval(
                point=point, low=point, high=point, confidence=confidence
            )
        half = z * self.standard_error()
        return ConfidenceInterval(
            point=point, low=point - half, high=point + half,
            confidence=confidence,
        )

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "sum": self.sum.to_dict(),
            "sum_sq": self.sum_sq.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "StreamingMoments":
        moments = cls()
        moments.n = int(data["n"])
        moments.sum = ExactSum.from_dict(data["sum"])
        moments.sum_sq = ExactSum.from_dict(data["sum_sq"])
        return moments


class WeightedMoments:
    """Exact raw moments for §3.4's duration-weighted mean and its
    weighted standard error.

    Tracks ``n, Σw, Σwx, Σw², Σw²x, Σw²x²`` exactly; the weighted-SE
    formula of :func:`repro.analysis.stats.weighted_standard_error`
    (``SE² = Σw²(x-x̄)² / (Σw)² * n/(n-1)``) expands into those sums and is
    evaluated in rational arithmetic, so the only rounding is the final
    conversion to double.
    """

    __slots__ = ("n", "sum_w", "sum_wx", "sum_w2", "sum_w2x", "sum_w2x2")

    def __init__(self) -> None:
        self.n = 0
        self.sum_w = ExactSum()
        self.sum_wx = ExactSum()
        self.sum_w2 = ExactSum()
        self.sum_w2x = ExactSum()
        self.sum_w2x2 = ExactSum()

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

    def merge(self, other: "WeightedMoments") -> None:
        self.n += other.n
        self.sum_w.merge(other.sum_w)
        self.sum_wx.merge(other.sum_wx)
        self.sum_w2.merge(other.sum_w2)
        self.sum_w2x.merge(other.sum_w2x)
        self.sum_w2x2.merge(other.sum_w2x2)

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
        z = normal_z(confidence)
        if self.n == 0 or self.sum_w.is_zero():
            return None
        point = self.mean()
        if self.n < 2:
            return ConfidenceInterval(
                point=point, low=point, high=point, confidence=confidence
            )
        half = z * self.standard_error()
        return ConfidenceInterval(
            point=point, low=point - half, high=point + half,
            confidence=confidence,
        )

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "sum_w": self.sum_w.to_dict(),
            "sum_wx": self.sum_wx.to_dict(),
            "sum_w2": self.sum_w2.to_dict(),
            "sum_w2x": self.sum_w2x.to_dict(),
            "sum_w2x2": self.sum_w2x2.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "WeightedMoments":
        moments = cls()
        moments.n = int(data["n"])
        moments.sum_w = ExactSum.from_dict(data["sum_w"])
        moments.sum_wx = ExactSum.from_dict(data["sum_wx"])
        moments.sum_w2 = ExactSum.from_dict(data["sum_w2"])
        moments.sum_w2x = ExactSum.from_dict(data["sum_w2x"])
        moments.sum_w2x2 = ExactSum.from_dict(data["sum_w2x2"])
        return moments


class FleetHistogram:
    """Log-binned histogram with integer counts and an exact value total.

    Bin layout comes from :class:`repro.obs.HistogramSpec` — a pure function
    of ``(lo, hi, n_bins)`` — so any two sinks over the same spec have
    identical edges and merging is integer addition.  Unlike the obs-layer
    :class:`repro.obs.Histogram` (whose float ``sum`` field is
    order-dependent), the value total here is an :class:`ExactSum`.
    """

    __slots__ = ("spec", "counts", "underflow", "overflow", "total")

    def __init__(self, spec: HistogramSpec) -> None:
        self.spec = spec
        self.counts: List[int] = [0] * spec.n_bins
        self.underflow = 0
        self.overflow = 0
        self.total = ExactSum()

    @property
    def count(self) -> int:
        return self.underflow + self.overflow + sum(self.counts)

    def observe(self, value: float) -> None:
        index = self.spec.bin_index(value)
        if index < 0:
            self.underflow += 1
        elif index >= self.spec.n_bins:
            self.overflow += 1
        else:
            self.counts[index] += 1
        self.total.add(value)

    def merge(self, other: "FleetHistogram") -> None:
        if other.spec != self.spec:
            raise ValueError(
                f"cannot merge histograms with different specs "
                f"({self.spec} vs {other.spec})"
            )
        for i, c in enumerate(other.counts):
            self.counts[i] += c
        self.underflow += other.underflow
        self.overflow += other.overflow
        self.total.merge(other.total)

    def mean(self) -> float:
        n = self.count
        return float(self.total.fraction() / n) if n else 0.0

    def quantile(self, q: float) -> float:
        """Approximate quantile from bin counts (geometric bin centre)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("q must lie in [0, 1]")
        n = self.count
        if n == 0:
            return 0.0
        target = q * n
        running = self.underflow
        if running >= target:
            return self.spec.lo
        edges = self.spec.edges()
        for i, c in enumerate(self.counts):
            running += c
            if running >= target:
                return math.sqrt(edges[i] * edges[i + 1])
        return self.spec.hi

    def to_dict(self) -> dict:
        return {
            "spec": self.spec.to_dict(),
            "counts": list(self.counts),
            "underflow": self.underflow,
            "overflow": self.overflow,
            "total": self.total.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FleetHistogram":
        hist = cls(HistogramSpec.from_dict(data["spec"]))
        counts = [int(c) for c in data["counts"]]
        if len(counts) != hist.spec.n_bins:
            raise ValueError("bin count mismatch in histogram state")
        hist.counts = counts
        hist.underflow = int(data["underflow"])
        hist.overflow = int(data["overflow"])
        hist.total = ExactSum.from_dict(data["total"])
        return hist


class StreamingSchemeSink(StreamAggregator):
    """One scheme's O(1)-memory aggregate: quality, stalls, exclusions.

    Implements the :class:`repro.analysis.summary.StreamAggregator`
    interface.  ``observe_stream`` expects *eligible* streams (the caller
    applies the CONSORT filter, as with the batch path); exclusion counters
    arrive separately via :meth:`observe_exclusions` from the per-session
    CONSORT arms.
    """

    def __init__(self, scheme: str) -> None:
        self.scheme = scheme
        # Session-level accounting.
        self.sessions = 0
        self.streams_assigned = 0
        self.duration = StreamingMoments()
        self.duration_hist = FleetHistogram(DURATION_SPEC)
        # CONSORT exclusion tallies (Fig. A1).
        self.did_not_begin = 0
        self.watch_time_under_4s = 0
        self.slow_video_decoder = 0
        self.truncated_loss_of_contact = 0
        # Eligible-stream quality aggregates (Fig. 1 columns).
        self.n_streams = 0
        self.watch = ExactSum()
        self.stall = ExactSum()
        self.stall_sq = ExactSum()
        self.watch_sq = ExactSum()
        self.stall_watch = ExactSum()
        self.ssim = WeightedMoments()
        self.variation = WeightedMoments()
        self.bitrate = WeightedMoments()
        self.startup = StreamingMoments()
        self.first_ssim = StreamingMoments()
        self.streams_with_stall = 0
        self.watch_hist = FleetHistogram(WATCH_TIME_SPEC)
        self.stall_ratio_hist = FleetHistogram(STALL_RATIO_SPEC)
        self.ssim_hist = FleetHistogram(SSIM_SPEC)

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

    def observe_exclusions(
        self,
        streams_assigned: int = 0,
        did_not_begin: int = 0,
        watch_time_under_4s: int = 0,
        slow_video_decoder: int = 0,
        truncated_loss_of_contact: int = 0,
    ) -> None:
        """Fold one session's CONSORT exclusion counts (Fig. A1)."""
        self.streams_assigned += streams_assigned
        self.did_not_begin += did_not_begin
        self.watch_time_under_4s += watch_time_under_4s
        self.slow_video_decoder += slow_video_decoder
        self.truncated_loss_of_contact += truncated_loss_of_contact

    # ------------------------------------------------------------------
    # Merging (exact: integer arithmetic throughout)
    # ------------------------------------------------------------------
    def merge(self, other: "StreamingSchemeSink") -> None:
        if other.scheme != self.scheme:
            raise ValueError(
                f"cannot merge sink for {other.scheme!r} into {self.scheme!r}"
            )
        self.sessions += other.sessions
        self.streams_assigned += other.streams_assigned
        self.duration.merge(other.duration)
        self.duration_hist.merge(other.duration_hist)
        self.did_not_begin += other.did_not_begin
        self.watch_time_under_4s += other.watch_time_under_4s
        self.slow_video_decoder += other.slow_video_decoder
        self.truncated_loss_of_contact += other.truncated_loss_of_contact
        self.n_streams += other.n_streams
        self.watch.merge(other.watch)
        self.stall.merge(other.stall)
        self.stall_sq.merge(other.stall_sq)
        self.watch_sq.merge(other.watch_sq)
        self.stall_watch.merge(other.stall_watch)
        self.ssim.merge(other.ssim)
        self.variation.merge(other.variation)
        self.bitrate.merge(other.bitrate)
        self.startup.merge(other.startup)
        self.first_ssim.merge(other.first_ssim)
        self.streams_with_stall += other.streams_with_stall
        self.watch_hist.merge(other.watch_hist)
        self.stall_ratio_hist.merge(other.stall_ratio_hist)
        self.ssim_hist.merge(other.ssim_hist)

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

    # ------------------------------------------------------------------
    # Serialization (exact round trip)
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "scheme": self.scheme,
            "sessions": self.sessions,
            "streams_assigned": self.streams_assigned,
            "duration": self.duration.to_dict(),
            "duration_hist": self.duration_hist.to_dict(),
            "did_not_begin": self.did_not_begin,
            "watch_time_under_4s": self.watch_time_under_4s,
            "slow_video_decoder": self.slow_video_decoder,
            "truncated_loss_of_contact": self.truncated_loss_of_contact,
            "n_streams": self.n_streams,
            "watch": self.watch.to_dict(),
            "stall": self.stall.to_dict(),
            "stall_sq": self.stall_sq.to_dict(),
            "watch_sq": self.watch_sq.to_dict(),
            "stall_watch": self.stall_watch.to_dict(),
            "ssim": self.ssim.to_dict(),
            "variation": self.variation.to_dict(),
            "bitrate": self.bitrate.to_dict(),
            "startup": self.startup.to_dict(),
            "first_ssim": self.first_ssim.to_dict(),
            "streams_with_stall": self.streams_with_stall,
            "watch_hist": self.watch_hist.to_dict(),
            "stall_ratio_hist": self.stall_ratio_hist.to_dict(),
            "ssim_hist": self.ssim_hist.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "StreamingSchemeSink":
        sink = cls(str(data["scheme"]))
        sink.sessions = int(data["sessions"])
        sink.streams_assigned = int(data["streams_assigned"])
        sink.duration = StreamingMoments.from_dict(data["duration"])
        sink.duration_hist = FleetHistogram.from_dict(data["duration_hist"])
        sink.did_not_begin = int(data["did_not_begin"])
        sink.watch_time_under_4s = int(data["watch_time_under_4s"])
        sink.slow_video_decoder = int(data["slow_video_decoder"])
        sink.truncated_loss_of_contact = int(
            data["truncated_loss_of_contact"]
        )
        sink.n_streams = int(data["n_streams"])
        sink.watch = ExactSum.from_dict(data["watch"])
        sink.stall = ExactSum.from_dict(data["stall"])
        sink.stall_sq = ExactSum.from_dict(data["stall_sq"])
        sink.watch_sq = ExactSum.from_dict(data["watch_sq"])
        sink.stall_watch = ExactSum.from_dict(data["stall_watch"])
        sink.ssim = WeightedMoments.from_dict(data["ssim"])
        sink.variation = WeightedMoments.from_dict(data["variation"])
        sink.bitrate = WeightedMoments.from_dict(data["bitrate"])
        sink.startup = StreamingMoments.from_dict(data["startup"])
        sink.first_ssim = StreamingMoments.from_dict(data["first_ssim"])
        sink.streams_with_stall = int(data["streams_with_stall"])
        sink.watch_hist = FleetHistogram.from_dict(data["watch_hist"])
        sink.stall_ratio_hist = FleetHistogram.from_dict(
            data["stall_ratio_hist"]
        )
        sink.ssim_hist = FleetHistogram.from_dict(data["ssim_hist"])
        return sink


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
        sink.sessions = int(data["sessions"])
        sink.streams = int(data["streams"])
        for name in sorted(data["schemes"]):
            sink.schemes[name] = StreamingSchemeSink.from_dict(
                data["schemes"][name]
            )
        for day in sorted(data["sessions_by_day"]):
            sink.sessions_by_day[int(day)] = int(data["sessions_by_day"][day])
        hours = [int(c) for c in data["arrivals_by_hour"]]
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
