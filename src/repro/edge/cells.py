"""Edge cells: the seeded partition of fleet arrivals into contention groups.

A *cell* models one shared edge — an access network plus its CDN edge
cache.  Consecutive fleet arrivals are grouped into cells (viewers who show
up together at the same edge), cell sizes are drawn from a configurable
distribution, and every per-cell random quantity (size, shared-link
capacity, local channel popularity) is keyed on a domain-separated tuple
seed ``(edge_seed, STREAM, cell_id)``.  Cell boundaries are therefore a
pure function of :class:`EdgeConfig` — a resumed run recomputes the exact
partition and skips the cells already committed, the same contract the
workload generator honours for arrivals.

Sessions inside a cell are coupled (they share the bottleneck and cache);
cells are independent — which is what makes
:func:`repro.edge.engine.run_cell` the fork-safe parallelism unit.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Iterator, List

import numpy as np

from repro.edge.zipf import ZipfChannelPopularity
from repro.net.link import HeavyTailLink, LinkModel, _count

_CELL_SIZE_STREAM = 0xCE11
"""Domain separation for per-cell size draws."""

_CELL_LINK_STREAM = 0xB077
"""Domain separation for the shared bottleneck's capacity process."""

_CELL_SIZE_DISTS = ("fixed", "geometric")


@dataclass(frozen=True)
class EdgeConfig:
    """Shape of the edge tier: cells, shared bottleneck, cache.

    ``mean_cell_sessions = 1`` with ``cell_size_dist = "fixed"`` makes
    every cell a singleton — the degenerate configuration whose fleet
    dumps are byte-identical to the private-link fleet.
    """

    mean_cell_sessions: float = 4.0
    """Mean sessions per cell (exact size under ``"fixed"``)."""

    cell_size_dist: str = "geometric"
    """``"fixed"`` (every cell ``round(mean)``) or ``"geometric"``
    (support ``>= 1``, mean ``mean_cell_sessions``)."""

    cell_capacity_bps: float = 60e6
    """Median capacity of a cell's shared bottleneck."""

    capacity_log_sigma: float = 0.5
    """Log-normal spread of shared capacity across cells."""

    capacity_sigma: float = 0.25
    """Within-cell capacity fluctuation (OU std of the shared link)."""

    capacity_fade_rate: float = 0.002
    """Per-epoch probability the shared link enters a deep fade."""

    zipf_alpha: float = 1.1
    """Channel-popularity skew inside a cell (0 = uniform)."""

    cache_chunks: int = 256
    """Per-cell LRU capacity in chunk versions; 0 disables the cache."""

    cubic_weight: float = 1.0
    """Fair-share weight of CUBIC flows relative to BBR flows (1 = neutral;
    >1 models CUBIC's queue-filling aggressiveness at a shared FIFO)."""

    seed: int = 0
    """Seed of the edge tier (independent of trial and workload seeds)."""

    def __post_init__(self) -> None:
        # First, because a NaN passes every ordered check below and the run
        # would die much later, inside the fair-share solver.
        for name in (
            "mean_cell_sessions",
            "cell_capacity_bps",
            "capacity_log_sigma",
            "capacity_sigma",
            "capacity_fade_rate",
            "zipf_alpha",
            "cubic_weight",
        ):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.mean_cell_sessions < 1.0:
            raise ValueError("mean cell size must be >= 1")
        if self.cell_size_dist not in _CELL_SIZE_DISTS:
            raise ValueError(
                f"cell_size_dist must be one of {_CELL_SIZE_DISTS}"
            )
        if self.cell_capacity_bps <= 0:
            raise ValueError("cell capacity must be positive")
        if self.capacity_log_sigma < 0 or self.capacity_sigma < 0:
            raise ValueError("capacity spreads must be non-negative")
        if not 0.0 <= self.capacity_fade_rate <= 1.0:
            raise ValueError("capacity_fade_rate must lie in [0, 1]")
        if self.zipf_alpha < 0:
            raise ValueError("zipf_alpha must be non-negative")
        # Whole numbers, by the rule of a link's fade_onset_epochs:
        # EdgeCache would truncate a cache of 2.7 to 2 (and True to 1)
        # without a word, and NaN would fail there naming no field; a seed
        # of 2.7 would fail inside numpy's SeedSequence.  Stored as ints,
        # so 3.0 fingerprints as 3 does.
        for name in ("cache_chunks", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValueError(
                    f"{name} must be a whole number, got {value!r}"
                )
            object.__setattr__(self, name, _count(name, value))
        if self.cubic_weight <= 0:
            raise ValueError("cubic_weight must be positive")

    # ------------------------------------------------------------------
    # Per-cell seeded quantities
    # ------------------------------------------------------------------
    def cell_size(self, cell_id: int) -> int:
        """Number of sessions in ``cell_id`` (pure function of config)."""
        if cell_id < 0:
            raise ValueError("cell_id must be non-negative")
        if self.cell_size_dist == "fixed":
            return max(1, int(round(self.mean_cell_sessions)))
        rng = np.random.default_rng(
            (self.seed, _CELL_SIZE_STREAM, cell_id)
        )
        return int(rng.geometric(1.0 / self.mean_cell_sessions))

    def shared_link(self, cell_id: int) -> LinkModel:
        """The cell's shared bottleneck capacity process.

        A :class:`~repro.net.link.HeavyTailLink` whose base capacity is
        drawn log-normally across cells — some edges are congested, most
        are comfortable — with the cell's own fade process on top.
        """
        rng = np.random.default_rng((self.seed, _CELL_LINK_STREAM, cell_id))
        base = float(
            self.cell_capacity_bps
            * np.exp(rng.normal(0.0, self.capacity_log_sigma))
        )
        return HeavyTailLink(
            base_bps=base,
            sigma=self.capacity_sigma,
            fade_rate=self.capacity_fade_rate,
            seed=(self.seed, _CELL_LINK_STREAM, cell_id, 1),
        )

    def popularity(
        self, cell_id: int, n_channels: int
    ) -> ZipfChannelPopularity:
        """The cell's local channel-popularity distribution."""
        return ZipfChannelPopularity(
            n_channels=n_channels,
            alpha=self.zipf_alpha,
            seed=self.seed,
            cell_id=cell_id,
        )

    # ------------------------------------------------------------------
    # Serialization (checkpoint fingerprinting)
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "mean_cell_sessions": self.mean_cell_sessions,
            "cell_size_dist": self.cell_size_dist,
            "cell_capacity_bps": self.cell_capacity_bps,
            "capacity_log_sigma": self.capacity_log_sigma,
            "capacity_sigma": self.capacity_sigma,
            "capacity_fade_rate": self.capacity_fade_rate,
            "zipf_alpha": self.zipf_alpha,
            "cache_chunks": self.cache_chunks,
            "cubic_weight": self.cubic_weight,
            "seed": self.seed,
        }


@dataclass(frozen=True)
class Cell:
    """One edge cell: a contiguous block of session ids."""

    cell_id: int
    start_session_id: int
    size: int

    def __post_init__(self) -> None:
        if self.cell_id < 0 or self.start_session_id < 0:
            raise ValueError("cell ids and session ids are non-negative")
        if self.size < 1:
            raise ValueError("a cell holds at least one session")

    @property
    def end_session_id(self) -> int:
        """One past the last session id (half-open, like ranges)."""
        return self.start_session_id + self.size

    @property
    def session_ids(self) -> range:
        return range(self.start_session_id, self.end_session_id)


def iter_cells(config: EdgeConfig) -> Iterator[Cell]:
    """Endless stream of cells partitioning session ids ``0, 1, 2, ...``."""
    cell_id = 0
    start = 0
    while True:
        size = config.cell_size(cell_id)
        yield Cell(cell_id=cell_id, start_session_id=start, size=size)
        start += size
        cell_id += 1


def cells_for(config: EdgeConfig, n_sessions: int) -> List[Cell]:
    """Cells covering sessions ``[0, n_sessions)``.

    The last cell is truncated at the fleet's actual session count (its
    seeded draws — shared link, popularity — depend only on ``cell_id``,
    so truncation does not perturb any other cell).
    """
    if n_sessions < 0:
        raise ValueError("n_sessions must be non-negative")
    out: List[Cell] = []
    for cell in iter_cells(config):
        if cell.start_session_id >= n_sessions:
            break
        if cell.end_session_id > n_sessions:
            out.append(
                Cell(
                    cell_id=cell.cell_id,
                    start_session_id=cell.start_session_id,
                    size=n_sessions - cell.start_session_id,
                )
            )
            break
        out.append(cell)
    return out


def cell_covering(config: EdgeConfig, session_id: int) -> Cell:
    """The cell containing ``session_id`` (resume uses this to find the
    first uncommitted cell boundary)."""
    if session_id < 0:
        raise ValueError("session_id must be non-negative")
    for cell in iter_cells(config):
        if cell.end_session_id > session_id:
            return cell
    raise AssertionError("unreachable: iter_cells is endless")
