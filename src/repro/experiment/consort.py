"""CONSORT-style experimental-flow accounting (Fig. A1).

The paper reports its randomized trial in the standardized CONSORT format
[32]: sessions randomized per arm, streams excluded (did not begin playing /
watch time under 4 s / stalled from a slow video decoder), streams truncated
by loss of contact, and streams considered for the primary analysis.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Dict, List, Sequence

from repro.streaming.session import StreamResult

MIN_WATCH_TIME_S = 4.0
"""Primary-analysis eligibility: streams that played at least 4 s (§5)."""

EXCLUDED = ("did_not_begin", "watch_time_under_4s", "slow_video_decoder")
"""Fig. A1's exclusion categories, as :func:`classify_stream` names them;
each is a :class:`ConsortArm` tally of the same name."""


@dataclass
class ConsortArm:
    """Exclusion accounting for one randomization arm."""

    scheme: str
    sessions_assigned: int = 0
    streams_assigned: int = 0
    did_not_begin: int = 0
    watch_time_under_4s: int = 0
    slow_video_decoder: int = 0
    truncated_loss_of_contact: int = 0
    considered: int = 0
    considered_watch_time_s: float = 0.0

    @property
    def excluded(self) -> int:
        return sum(getattr(self, category) for category in EXCLUDED)

    def check(self) -> None:
        """Internal consistency: every stream is excluded or considered."""
        if self.excluded + self.considered != self.streams_assigned:
            raise ValueError(
                f"arm {self.scheme}: {self.excluded} excluded + "
                f"{self.considered} considered != {self.streams_assigned} assigned"
            )

    def merge_from(self, other: "ConsortArm") -> None:
        """Accumulate another arm's counters (sharded-trial merge)."""
        if other.scheme != self.scheme:
            raise ValueError(
                f"cannot merge arm {other.scheme!r} into {self.scheme!r}"
            )
        for name in (f.name for f in fields(self) if f.name != "scheme"):
            setattr(self, name, getattr(self, name) + getattr(other, name))


@dataclass
class ConsortFlow:
    """The full Fig. A1 diagram as data."""

    arms: Dict[str, ConsortArm] = field(default_factory=dict)

    def arm(self, scheme: str) -> ConsortArm:
        if scheme not in self.arms:
            self.arms[scheme] = ConsortArm(scheme=scheme)
        return self.arms[scheme]

    @property
    def sessions_randomized(self) -> int:
        return sum(arm.sessions_assigned for arm in self.arms.values())

    @property
    def streams_total(self) -> int:
        return sum(arm.streams_assigned for arm in self.arms.values())

    @property
    def streams_considered(self) -> int:
        return sum(arm.considered for arm in self.arms.values())

    @property
    def considered_watch_years(self) -> float:
        seconds = sum(arm.considered_watch_time_s for arm in self.arms.values())
        return seconds / (365.25 * 24 * 3600)

    def check(self) -> None:
        for arm in self.arms.values():
            arm.check()

    def merge_from(self, other: "ConsortFlow") -> None:
        """Accumulate another flow's arms (sharded-trial merge).

        Arms unseen so far are created in ``other``'s order, so merging
        per-session flows in session order reproduces the serial loop's arm
        insertion order exactly.
        """
        for name, arm in other.arms.items():
            self.arm(name).merge_from(arm)


def classify_stream(result: StreamResult) -> str:
    """CONSORT category of one stream: one of :data:`EXCLUDED`, or
    'considered'."""
    if result.never_began or result.startup_delay is None:
        return "did_not_begin"
    if result.watch_time < MIN_WATCH_TIME_S:
        return "watch_time_under_4s"
    if result.excluded:
        return "slow_video_decoder"
    return "considered"


def eligible_streams(results: Sequence[StreamResult]) -> List[StreamResult]:
    """Streams passing the primary-analysis filter (played >= 4 s)."""
    return [r for r in results if classify_stream(r) == "considered"]
