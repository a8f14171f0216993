"""Crash-safe checkpoint/resume for fleet runs.

A deployment simulator must survive being killed: the paper's data comes
from months of continuous operation, and a batch harness that loses
everything on SIGKILL cannot model that.  The fleet driver checkpoints
after every committed chunk:

* the **sink state** (exactly serialized — see
  :mod:`repro.fleet.sinks`);
* the **next undone session id** (sessions are committed strictly in id
  order, so one integer captures progress);
* optional **archive byte offsets**, so a streamed open-data archive can be
  truncated back to the last durable commit on resume;
* a **config fingerprint**, so a checkpoint is never resumed under a
  different configuration (which would silently corrupt the statistics).

Writes are atomic via :func:`repro.atomio.atomic_write_text` (tmp +
``fsync`` + ``os.replace`` + directory fsync) — a kill at any instant
leaves either the previous checkpoint or the new one, never a torn file.  Combined with exact sink
serialization and sessions being pure functions of ``(seed, session_id)``,
resuming from *any* surviving checkpoint reproduces a byte-identical final
metrics dump.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.atomio import atomic_write_text
from repro.fleet.sinks import FleetSink

CHECKPOINT_SCHEMA_VERSION = 1


class CheckpointError(RuntimeError):
    """A checkpoint exists but cannot be used (corrupt, wrong schema, or
    written under a different configuration)."""


@dataclass
class FleetCheckpoint:
    """Everything needed to continue a fleet run from a durable point."""

    fingerprint: str
    next_session_id: int
    sink: FleetSink
    archive_offsets: Optional[Dict[str, int]] = None
    cli_args: Optional[dict] = None
    """The CLI parameters that launched the run (``repro fleet resume``
    reconstructs its configuration from these; ``None`` for API runs)."""

    completed: bool = False
    """True once every session in the workload has been committed."""

    extra: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "schema_version": CHECKPOINT_SCHEMA_VERSION,
            "fingerprint": self.fingerprint,
            "next_session_id": self.next_session_id,
            "sink": self.sink.to_dict(),
            "archive_offsets": self.archive_offsets,
            "cli_args": self.cli_args,
            "completed": self.completed,
            "extra": self.extra,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FleetCheckpoint":
        version = int(data.get("schema_version", 0))
        if version != CHECKPOINT_SCHEMA_VERSION:
            raise CheckpointError(
                f"unsupported checkpoint schema version {version} "
                f"(expected {CHECKPOINT_SCHEMA_VERSION})"
            )
        offsets = data.get("archive_offsets")
        return cls(
            fingerprint=str(data["fingerprint"]),
            next_session_id=int(data["next_session_id"]),
            sink=FleetSink.from_dict(data["sink"]),
            archive_offsets=(
                {str(k): int(v) for k, v in sorted(offsets.items())}
                if offsets is not None
                else None
            ),
            cli_args=data.get("cli_args"),
            completed=bool(data.get("completed", False)),
            extra=dict(data.get("extra", {})),
        )


def config_fingerprint(*parts: object) -> str:
    """SHA-256 over the canonical JSON of the run's configuration.

    Callers pass JSON-ready dicts (workload config, trial knobs, scheme
    names); any change to any of them produces a different fingerprint and
    refuses to resume.
    """
    canonical = json.dumps(list(parts), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class CheckpointManager:
    """Atomic save/load of :class:`FleetCheckpoint` at a fixed path."""

    def __init__(self, path: str) -> None:
        self.path = str(path)
        self.saves = 0

    def exists(self) -> bool:
        return os.path.exists(self.path)

    def save(self, checkpoint: FleetCheckpoint) -> None:
        """Durably replace the checkpoint (tmp + fsync + rename)."""
        directory = os.path.dirname(os.path.abspath(self.path))
        os.makedirs(directory, exist_ok=True)
        payload = json.dumps(
            checkpoint.to_dict(), sort_keys=True, separators=(",", ":")
        )
        atomic_write_text(self.path, payload + "\n")
        self.saves += 1

    def load(self, expected_fingerprint: Optional[str] = None) -> FleetCheckpoint:
        """Read and validate the checkpoint.

        Raises :class:`FileNotFoundError` when absent and
        :class:`CheckpointError` when corrupt (not JSON, or JSON of the
        wrong shape) or — if ``expected_fingerprint`` is given — written
        under a different configuration.
        """
        with open(self.path) as f:
            try:
                checkpoint = FleetCheckpoint.from_dict(json.load(f))
            except (AttributeError, KeyError, TypeError, ValueError) as exc:
                raise CheckpointError(
                    f"corrupt checkpoint {self.path} "
                    f"({type(exc).__name__}: {exc}); delete it to start fresh"
                ) from exc
        if (
            expected_fingerprint is not None
            and checkpoint.fingerprint != expected_fingerprint
        ):
            raise CheckpointError(
                f"checkpoint {self.path} was written by a different "
                f"configuration (fingerprint {checkpoint.fingerprint[:12]}… "
                f"!= expected {expected_fingerprint[:12]}…); refusing to "
                "resume — delete the checkpoint to start fresh"
            )
        return checkpoint
