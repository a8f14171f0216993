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

from dataclasses import asdict, dataclass
from typing import Iterator, List

import numpy as np

from repro.edge.zipf import ZipfChannelPopularity
from repro.fields import (
    check, non_negative, positive, probability, whole, whole_positive,
)
from repro.net.link import HeavyTailLink, LinkModel

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

    KINDS = {
        "mean_cell_sessions": positive, "cell_capacity_bps": positive,
        "capacity_log_sigma": non_negative, "capacity_sigma": non_negative,
        "capacity_fade_rate": probability, "zipf_alpha": non_negative,
        "cache_chunks": whole, "cubic_weight": positive, "seed": whole,
    }

    def __post_init__(self) -> None:
        check(self)
        if self.mean_cell_sessions < 1.0:
            raise ValueError("mean cell size must be >= 1")
        if self.cell_size_dist not in _CELL_SIZE_DISTS:
            raise ValueError(
                f"cell_size_dist must be one of {_CELL_SIZE_DISTS}"
            )

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
        return asdict(self)


@dataclass(frozen=True)
class Cell:
    """One edge cell: a contiguous block of session ids."""

    cell_id: int
    start_session_id: int
    size: int

    KINDS = {
        "cell_id": whole, "start_session_id": whole, "size": whole_positive,
    }

    def __post_init__(self) -> None:
        check(self)

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
