"""Process-local metrics registry: counters, gauges, histograms.

Design constraints (they drive every decision here):

* **Zero dependencies.**  The registry is imported by the hottest modules in
  the simulator (``net/tcp.py`` runs it once per chunk), so it must not drag
  numpy — plain ``math`` and dicts only.

* **Exact shard merging.**  The parallel trial engine gives every session its
  own registry and folds them back in session-id order.  For the merged
  result to be *bit-identical* to the serial loop, merging must be exact:
  histogram bins are **fixed log-spaced** (derived only from the
  :class:`HistogramSpec`, never from the data), so two shards' bins line up
  and merging is integer addition; counters and histogram sums are float
  additions performed in the same (session-id) order on both paths.

* **Wall-clock quarantine.**  Metrics that record wall-clock time (profiling
  spans, per-session wall time) are inherently nondeterministic.  They are
  tagged ``wallclock`` at record time and excluded from the *deterministic*
  dump (``to_dict(include_wallclock=False)``), which is the surface the
  serial-vs-parallel equivalence tests compare and the contract future
  dashboards build on.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Type, TypeVar

from repro.fields import check, positive, whole, whole_positive


@dataclass(frozen=True)
class HistogramSpec:
    """Fixed log-spaced binning: ``n_bins`` bins geometrically spanning
    ``[lo, hi)``, plus an underflow and an overflow bucket.

    Because the bin edges are a pure function of ``(lo, hi, n_bins)``, every
    shard that observes into a histogram of the same name uses identical
    edges and shard merging reduces to adding bin counts.
    """

    lo: float = 1e-6
    hi: float = 1e6
    n_bins: int = 96
    _log_lo: float = field(init=False, repr=False, compare=False)
    _log_span: float = field(init=False, repr=False, compare=False)

    KINDS = {"lo": positive, "hi": positive, "n_bins": whole_positive}

    def __post_init__(self) -> None:
        check(self)
        if not self.lo < self.hi:
            raise ValueError("need 0 < lo < hi")
        # The same doubles bin_index used to take from two logs per call.
        log_lo = math.log(self.lo)
        object.__setattr__(self, "_log_lo", log_lo)
        object.__setattr__(self, "_log_span", math.log(self.hi) - log_lo)

    def bin_index(self, value: float) -> int:
        """Bin for ``value``: -1 underflow, ``n_bins`` overflow."""
        if value < self.lo:
            return -1
        n_bins = self.n_bins
        if value >= self.hi:
            return n_bins
        try:
            idx = int((math.log(value) - self._log_lo) / self._log_span * n_bins)
        except ValueError:
            # Only NaN fails both comparisons above and reaches here.
            raise ValueError(f"cannot bin {value!r}") from None
        return idx if idx < n_bins else n_bins - 1

    def edges(self) -> List[float]:
        """The ``n_bins + 1`` bin edges (log-spaced)."""
        log_lo, log_hi = math.log(self.lo), math.log(self.hi)
        return [
            math.exp(log_lo + (log_hi - log_lo) * i / self.n_bins)
            for i in range(self.n_bins + 1)
        ]

    def to_dict(self) -> dict:
        return {"lo": self.lo, "hi": self.hi, "n_bins": self.n_bins}

    @classmethod
    def from_dict(cls, data: dict) -> "HistogramSpec":
        return cls(lo=data["lo"], hi=data["hi"], n_bins=data["n_bins"])


# Pre-sized specs for the quantities the simulator instruments.  Sharing
# named specs (rather than ad-hoc ranges) is what keeps histograms mergeable
# across every layer that observes into the same metric.
TIME_SPEC = HistogramSpec(lo=1e-3, hi=1e3, n_bins=60)
"""Durations in seconds: 1 ms .. 1000 s, 10 bins per decade."""

SIZE_SPEC = HistogramSpec(lo=1e2, hi=1e8, n_bins=60)
"""Byte sizes: 100 B .. 100 MB, 10 bins per decade."""

RATE_SPEC = HistogramSpec(lo=1e4, hi=1e10, n_bins=60)
"""Rates in bits/s: 10 kbit/s .. 10 Gbit/s, 10 bins per decade."""


_H = TypeVar("_H", bound="LogHistogram")


class LogHistogram:
    """Counts of observations in the fixed log-spaced bins of one spec:
    the bin counting, exact merge and quantile that :class:`Histogram` and
    :class:`repro.fleet.sinks.FleetHistogram` share.  Each count loads
    through :func:`repro.fields.whole`, so a corrupt one raises naming it.
    """

    __slots__ = ("spec", "counts", "underflow", "overflow")

    def __init__(self, spec: HistogramSpec = HistogramSpec()) -> None:
        self.spec = spec
        self.counts = [0] * spec.n_bins
        self.underflow = 0
        self.overflow = 0

    def observe(self, value: float) -> None:
        idx = self.spec.bin_index(value)
        if idx < 0:
            self.underflow += 1
        elif idx >= self.spec.n_bins:
            self.overflow += 1
        else:
            self.counts[idx] += 1

    def merge(self, other: "LogHistogram") -> None:
        if other.spec != self.spec:
            raise ValueError(
                f"cannot merge histograms with different specs "
                f"({self.spec} vs {other.spec})"
            )
        for i, c in enumerate(other.counts):
            self.counts[i] += c
        self.underflow += other.underflow
        self.overflow += other.overflow

    def observed(self) -> int:
        """Observations in the bins, under- and overflow included."""
        return self.underflow + self.overflow + sum(self.counts)

    def quantile(self, q: float) -> float:
        """Approximate quantile from the bin counts (geometric bin center;
        ``lo``/``hi`` for the open under/overflow buckets)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("q must lie in [0, 1]")
        n = self.observed()
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
        }

    @classmethod
    def from_dict(cls: Type[_H], data: dict) -> _H:
        hist = cls(HistogramSpec.from_dict(data["spec"]))
        owner = cls.__name__
        counts = [
            whole(owner, f"counts[{i}]", c) for i, c in enumerate(data["counts"])
        ]
        if len(counts) != hist.spec.n_bins:
            raise ValueError(f"{owner}: bin count mismatch with its spec")
        hist.counts = counts
        hist.underflow = whole(owner, "underflow", data["underflow"])
        hist.overflow = whole(owner, "overflow", data["overflow"])
        return hist


class Histogram(LogHistogram):
    """A :class:`LogHistogram` with a stored count and a float sum (merged
    in session-id order, so serial and parallel trials agree)."""

    __slots__ = ("count", "sum")

    def __init__(self, spec: HistogramSpec = HistogramSpec()) -> None:
        super().__init__(spec)
        self.count = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        super().observe(value)
        self.count += 1
        self.sum += value

    def merge(self, other: "Histogram") -> None:  # type: ignore[override]
        super().merge(other)
        self.count += other.count
        self.sum += other.sum

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def to_dict(self) -> dict:
        return {**super().to_dict(), "count": self.count, "sum": self.sum}

    @classmethod
    def from_dict(cls, data: dict) -> "Histogram":
        hist = super().from_dict(data)
        hist.count = whole(cls.__name__, "count", data["count"])
        hist.sum = float(data["sum"])
        return hist


class MetricsRegistry:
    """Flat name → metric store for one shard (or one merged trial).

    Names are dotted paths (``tcp.rounds``, ``stream.stall_s``).  A name is
    permanently one kind of metric; observing a counter name as a histogram
    (or vice versa) raises, which catches instrumentation typos early.
    """

    def __init__(self) -> None:
        self.counters: Dict[str, float] = {}
        self.gauges: Dict[str, float] = {}
        self.histograms: Dict[str, Histogram] = {}
        self._wallclock: Set[str] = set()

    # -- recording ------------------------------------------------------
    def inc(self, name: str, amount: float = 1.0) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + amount

    def set_gauge(self, name: str, value: float) -> None:
        self.gauges[name] = float(value)

    def observe(
        self,
        name: str,
        value: float,
        spec: Optional[HistogramSpec] = None,
        wallclock: bool = False,
    ) -> None:
        hist = self.histograms.get(name)
        if hist is None:
            hist = Histogram(spec if spec is not None else HistogramSpec())
            self.histograms[name] = hist
        # Identity first: instrumented sites pass the shared named specs.
        elif spec is not None and spec is not hist.spec and spec != hist.spec:
            raise ValueError(f"histogram {name!r} already bound to {hist.spec}")
        if wallclock:
            self._wallclock.add(name)
        hist.observe(value)

    def mark_wallclock(self, name: str) -> None:
        """Tag ``name`` as wall-clock (excluded from deterministic dumps)."""
        self._wallclock.add(name)

    # -- merging --------------------------------------------------------
    def merge(self, other: "MetricsRegistry") -> None:
        """Fold ``other`` into this registry.

        Exact for counters/histograms (addition); gauges are last-write-wins
        in merge order — the parallel engine merges shards in session-id
        order, so the result is identical to the serial loop's.
        """
        for name, value in other.counters.items():
            self.counters[name] = self.counters.get(name, 0.0) + value
        for name, value in other.gauges.items():
            self.gauges[name] = value
        for name, hist in other.histograms.items():
            mine = self.histograms.get(name)
            if mine is None:
                mine = Histogram(hist.spec)
                self.histograms[name] = mine
            mine.merge(hist)
        self._wallclock.update(other._wallclock)

    # -- serialization --------------------------------------------------
    def to_dict(self, include_wallclock: bool = True) -> dict:
        """Canonical dict (keys sorted).  ``include_wallclock=False`` drops
        wall-clock metrics, yielding the deterministic surface that must be
        bit-identical between the serial and parallel engines."""

        def keep(name: str) -> bool:
            return include_wallclock or name not in self._wallclock

        return {
            "counters": {
                k: self.counters[k] for k in sorted(self.counters) if keep(k)
            },
            "gauges": {
                k: self.gauges[k] for k in sorted(self.gauges) if keep(k)
            },
            "histograms": {
                k: self.histograms[k].to_dict()
                for k in sorted(self.histograms)
                if keep(k)
            },
            "wallclock": sorted(
                n for n in self._wallclock if include_wallclock
            ),
        }

    def to_json(self, include_wallclock: bool = True, indent: int = 2) -> str:
        return json.dumps(
            self.to_dict(include_wallclock=include_wallclock),
            sort_keys=True,
            indent=indent,
        )

    @classmethod
    def from_dict(cls, data: dict) -> "MetricsRegistry":
        reg = cls()
        reg.counters = {k: float(v) for k, v in data.get("counters", {}).items()}
        reg.gauges = {k: float(v) for k, v in data.get("gauges", {}).items()}
        reg.histograms = {
            k: Histogram.from_dict(v)
            for k, v in data.get("histograms", {}).items()
        }
        reg._wallclock = set(data.get("wallclock", []))
        return reg

    def __len__(self) -> int:
        return len(self.counters) + len(self.gauges) + len(self.histograms)
