"""Continual in-situ TTP retraining as a crash-safe fleet service (§4.3).

This module closes the paper's core loop — *learning in situ* — inside the
simulated deployment: the fleet runs an RCT, streams its telemetry to the
open-data archive, and this service consumes that archive **as it is
written**, retrains the TTP at every simulated day boundary, and enrolls
each new model generation as a fresh arm in the running experiment.  The
Fig. 9 cold-start comparison (1-day vs 14-day Fugu) thereby extends into a
continuous curve: one arm per generation, each with its own QoE summary in
the fleet dump.

Design constraints, inherited from the fleet runner and kept bit-exact:

* **The archive is the training set.**  Day-``d`` telemetry is exactly the
  rows appended between two recorded byte-offset snapshots
  (:meth:`repro.data.archive.ArchiveAppender.offsets` at consecutive day
  boundaries) — no timestamp parsing (telemetry times are
  session-relative), no re-reading of earlier days, O(day) memory.
  Training streams are rebuilt from those rows by
  :func:`repro.data.archive.reconstruct_training_streams`, so the TTP
  learns from what the deployment *logged*, exactly as in the paper.
* **Day-aligned commits.**  Chunks never span an arrival-day boundary.
  This is what makes the run reproducible at any worker count and chunk
  size: every session of day ``d`` is simulated against the same arm set
  (base schemes + generations committed strictly before day ``d``), and
  the fork-pool payload is rebuilt per day segment because enrollment
  changes the spec list.
* **Crash safety = replayability.**  The checkpoint's ``extra`` slot
  carries the retrain state (generation count, the window's archive
  byte-ranges, the open day's start offsets).  On resume the registry is
  truncated back to the checkpointed generation count, the predictor is
  reloaded from its last committed generation (JSON float round-trips are
  exact, so reloads are *bitwise* identical), the sliding window is
  rebuilt from the archive byte-ranges, and the day replays — a ``kill
  -9`` at any instant leaves the final registry and dump byte-identical
  to an uninterrupted run.

The differential contract — the continual service equals a from-scratch
:class:`repro.core.train.DailyRetrainer` fed the same archive day by day,
with identical ``state_dict()`` per generation and no tolerance — is locked
in by ``tests/fleet/test_retrain.py``.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, field
from itertools import groupby
from pathlib import Path
from typing import (
    Callable,
    Generator,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro import obs
from repro.atomio import atomic_write_bytes
from repro.crashpoints import crashpoint
from repro.core.train import (
    RECENCY_DECAY,
    RETRAIN_WINDOW_DAYS,
    DailyRetrainer,
    TtpTrainer,
)
from repro.core.ttp import TransmissionTimePredictor, TtpConfig
from repro.data.archive import ArchiveAppender
from repro.experiment.schemes import SchemeSpec, generation_scheme_spec
from repro.fields import check, probability, whole, whole_positive
from repro.fleet.checkpoint import FleetCheckpoint, config_fingerprint
from repro.fleet.runner import FleetConfig, FleetResult, _drive_fleet, _Segment
from repro.fleet.sinks import FleetSink
from repro.fleet.workload import SessionArrival

REGISTRY_SCHEMA_VERSION = 1
"""Version of the on-disk model-registry layout."""

RETRAIN_STATE_VERSION = 1
"""Version of the checkpoint ``extra["retrain"]`` payload."""


class RegistryError(RuntimeError):
    """The model registry on disk cannot be used (corrupt or mismatched)."""


def _canonical_bytes(payload: dict) -> bytes:
    """The registry's canonical serialization (also the hashing surface):
    the bytes of ``json.dumps(payload, sort_keys=True, indent=2) + "\n"``.

    ``indent`` turns the C encoder off, and a generation's weights are tens
    of thousands of numbers, so a list of plain ``int`` / ``float`` (not
    ``bool``) is encoded by the C encoder on one line and laid out as
    ``indent=2`` lays it out; everything else is laid out here, each leaf by
    ``json.dumps``."""
    return (_indented(payload, "\n") + "\n").encode("utf-8")


def _indented(value: object, newline: str) -> str:
    """``value`` as ``json.dumps(value, sort_keys=True, indent=2)`` writes
    it at the nesting level whose line break and indent is ``newline``."""
    inner = newline + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        return (
            "{"
            + inner
            + ("," + inner).join(
                # json.dumps quotes a str key and writes the others as
                # their JSON literal, then quotes that.
                json.dumps(key if isinstance(key, str) else json.dumps(key))
                + ": "
                + _indented(item, inner)
                for key, item in sorted(value.items())
            )
            + newline
            + "}"
        )
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        if set(map(type, value)) <= {int, float}:
            # No encoded number contains ", ": every one is a separator.
            items = json.dumps(value)[1:-1].replace(", ", "," + inner)
        else:
            items = ("," + inner).join(_indented(item, inner) for item in value)
        return "[" + inner + items + newline + "]"
    return json.dumps(value)


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class RetrainConfig:
    """The continual-retraining policy (§4.3 knobs + arm naming)."""

    ttp: TtpConfig = field(default_factory=TtpConfig)
    """Architecture of every generation (generations share one config; the
    registry would otherwise not be able to warm-start across them)."""

    window_days: int = RETRAIN_WINDOW_DAYS
    recency_decay: float = RECENCY_DECAY
    epochs_per_day: int = 8
    seed: int = 0
    """Base training seed.  Day ``d``'s retraining uses ``seed + d`` (via
    :class:`~repro.core.train.DailyRetrainer`), so every generation is a
    pure function of (archive window, generation index)."""

    arm_prefix: str = "fugu"
    """Generation ``g`` enrolls as arm ``f"{arm_prefix}@g{g:03d}"``."""

    KINDS = {
        "window_days": whole_positive, "recency_decay": probability,
        "epochs_per_day": whole_positive, "seed": whole,
    }

    def __post_init__(self) -> None:
        check(self)
        if self.recency_decay <= 0.0:
            raise ValueError("recency_decay must lie in (0, 1]")
        if not self.arm_prefix:
            raise ValueError("arm_prefix must be non-empty")

    def arm_name(self, generation: int) -> str:
        return f"{self.arm_prefix}@g{generation:03d}"

    def to_dict(self) -> dict:
        """JSON-ready form; part of the checkpoint fingerprint."""
        return {
            "ttp": self.ttp.to_dict(),
            "window_days": self.window_days,
            "recency_decay": self.recency_decay,
            "epochs_per_day": self.epochs_per_day,
            "seed": self.seed,
            "arm_prefix": self.arm_prefix,
        }


# ---------------------------------------------------------------------------
# The versioned on-disk model registry
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class GenerationEntry:
    """One committed model generation (a manifest row)."""

    generation: int
    """1-based generation index (== number of retrainings so far)."""

    day: int
    """The 1-based retrainer day whose close produced this generation."""

    arm: str
    filename: str
    sha256: str
    """SHA-256 of the generation file's canonical bytes."""

    parent_sha256: Optional[str]
    """Hash of the previous generation's file (lineage chain); ``None``
    for the first generation (warm-started from random init)."""

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "GenerationEntry":
        parent = data.get("parent_sha256")
        return cls(
            generation=int(data["generation"]),
            day=int(data["day"]),
            arm=str(data["arm"]),
            filename=str(data["filename"]),
            sha256=str(data["sha256"]),
            parent_sha256=None if parent is None else str(parent),
        )


class ModelRegistry:
    """Versioned on-disk store of TTP generations with checkpointed lineage.

    Layout: ``manifest.json`` (ordered generation entries) plus one
    ``gen-NNNN.json`` per generation holding the full payload — parent
    hash, training window (day numbers), eval metrics, and the exact
    ``state_dict``.  All files are canonical JSON written atomically, so
    a replayed run rewrites byte-identical files; :meth:`truncate` rolls
    the registry back to a checkpointed generation count on resume,
    deleting any file a crash left beyond the durable state.
    """

    def __init__(self, directory: Union[str, Path]) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self._entries: List[GenerationEntry] = []
        manifest = self._manifest_path()
        if manifest.exists():
            try:
                data = json.loads(manifest.read_text())
                version = int(data.get("schema_version", 0))
                if version != REGISTRY_SCHEMA_VERSION:
                    raise ValueError(
                        f"unsupported schema version {version} "
                        f"(expected {REGISTRY_SCHEMA_VERSION})"
                    )
                if not isinstance(data["generations"], list):
                    raise TypeError("'generations' is not a list")
                self._entries = [
                    GenerationEntry.from_dict(entry)
                    for entry in data["generations"]
                ]
                for i, entry in enumerate(self._entries):
                    if entry.generation != i + 1:
                        raise ValueError(f"out of order at index {i}")
            except (AttributeError, KeyError, TypeError, ValueError) as exc:
                # JSON of the wrong shape is as unusable as non-JSON.
                raise RegistryError(
                    f"corrupt registry manifest {manifest} "
                    f"({type(exc).__name__}: {exc}); a run cannot resume "
                    "from it — restore the file or use a fresh directory"
                ) from exc

    def _manifest_path(self) -> Path:
        return self.directory / "manifest.json"

    @staticmethod
    def _filename(generation: int) -> str:
        return f"gen-{generation:04d}.json"

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def generations(self) -> Tuple[GenerationEntry, ...]:
        return tuple(self._entries)

    def _write_manifest(self) -> None:
        payload = {
            "schema_version": REGISTRY_SCHEMA_VERSION,
            "generations": [entry.to_dict() for entry in self._entries],
        }
        atomic_write_bytes(self._manifest_path(), _canonical_bytes(payload))

    def _write_generation(self, filename: str, data: bytes) -> None:
        """Durably land one generation file (before the manifest names it)."""
        atomic_write_bytes(self.directory / filename, data)

    def commit(
        self,
        *,
        day: int,
        arm: str,
        state: dict,
        window_days: Sequence[int],
        n_streams_day: int,
        n_streams_window: int,
        evaluation: List[dict],
    ) -> GenerationEntry:
        """Durably append one generation and return its manifest entry.

        The payload is canonical JSON; its SHA-256 chains to the previous
        generation's hash, giving the registry a verifiable lineage.  The
        generation file lands (atomically) before the manifest does, so a
        crash between the two leaves an orphan file that the next resume's
        :meth:`truncate` deletes.
        """
        generation = len(self._entries) + 1
        parent = self._entries[-1].sha256 if self._entries else None
        payload = {
            "schema_version": REGISTRY_SCHEMA_VERSION,
            "generation": generation,
            "day": int(day),
            "arm": arm,
            "parent_sha256": parent,
            "window_days": [int(d) for d in window_days],
            "n_streams_day": int(n_streams_day),
            "n_streams_window": int(n_streams_window),
            "eval": evaluation,
            "state_dict": state,
        }
        data = _canonical_bytes(payload)
        sha = hashlib.sha256(data).hexdigest()
        filename = self._filename(generation)
        self._write_generation(filename, data)
        crashpoint(f"registry.commit-boundary:{filename}")
        entry = GenerationEntry(
            generation=generation,
            day=int(day),
            arm=arm,
            filename=filename,
            sha256=sha,
            parent_sha256=parent,
        )
        self._entries.append(entry)
        self._write_manifest()
        return entry

    def truncate(self, n_generations: int) -> None:
        """Roll back to the first ``n_generations`` entries.

        Deletes every ``gen-*.json`` beyond the kept count — including
        orphans a crash wrote after the last durable checkpoint — and
        rewrites the manifest, so a resumed run re-derives the dropped
        generations into byte-identical files.
        """
        if n_generations < 0:
            raise ValueError("n_generations must be >= 0")
        if n_generations > len(self._entries):
            raise RegistryError(
                f"checkpoint expects {n_generations} generations but the "
                f"registry manifest has only {len(self._entries)}"
            )
        self._entries = self._entries[:n_generations]
        for path in sorted(self.directory.glob("gen-*.json")):
            try:
                index = int(path.stem.split("-", 1)[1])
            except (IndexError, ValueError):
                continue
            if index > n_generations:
                path.unlink()
        self._write_manifest()

    def load_payload(self, generation: Optional[int] = None) -> dict:
        """Read one generation's full payload, verifying its hash."""
        if not self._entries:
            raise RegistryError("registry is empty")
        if generation is None:
            generation = self._entries[-1].generation
        if not 1 <= generation <= len(self._entries):
            raise RegistryError(f"no generation {generation} in registry")
        entry = self._entries[generation - 1]
        path = self.directory / entry.filename
        data = path.read_bytes()
        sha = hashlib.sha256(data).hexdigest()
        if sha != entry.sha256:
            raise RegistryError(
                f"generation file {path} does not match its manifest hash"
            )
        result: dict = json.loads(data.decode("utf-8"))
        return result

    def load_predictor(
        self, generation: Optional[int] = None
    ) -> TransmissionTimePredictor:
        """Rebuild a generation's predictor — bitwise identical to the one
        committed (JSON float serialization round-trips exactly)."""
        payload = self.load_payload(generation)
        return TransmissionTimePredictor.from_state_dict(
            payload["state_dict"]
        )

    def format_table(self) -> str:
        """Lineage table for the ``repro fleet models`` CLI."""
        lines = [
            f"{'Gen':>4}{'Day':>5}  {'Arm':<12}{'Window':<10}"
            f"{'Streams':>8}  {'XEnt':>7}  {'SHA-256':<14}Parent"
        ]
        for entry in self._entries:
            payload = self.load_payload(entry.generation)
            window = payload["window_days"]
            span = (
                f"d{window[0]}–d{window[-1]}" if window else "—"
            )
            evals = payload["eval"]
            xent = (
                f"{evals[0]['cross_entropy']:.4f}" if evals else "—"
            )
            parent = (
                entry.parent_sha256[:12]
                if entry.parent_sha256 is not None
                else "(genesis)"
            )
            lines.append(
                f"{entry.generation:>4}{entry.day:>5}  {entry.arm:<12}"
                f"{span:<10}{payload['n_streams_window']:>8}  {xent:>7}  "
                f"{entry.sha256[:12]:<14}{parent}"
            )
        lines.append(
            f"{len(self._entries)} generation(s) in {self.directory}"
        )
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# The continual driver
# ---------------------------------------------------------------------------
def run_fleet_retrain(
    base_specs: Sequence[SchemeSpec],
    config: FleetConfig,
    retrain: RetrainConfig,
    archive_dir: Union[str, Path],
    registry_dir: Union[str, Path],
    workers: int = 1,
    checkpoint_path: Optional[str] = None,
    resume: bool = False,
    stop_after_sessions: Optional[int] = None,
    cli_args: Optional[dict] = None,
    on_commit: Optional[Callable[[int, FleetSink], None]] = None,
) -> FleetResult:
    """Run (or resume) a deployment with continual in-situ TTP retraining.

    Extends :func:`repro.fleet.runner.run_fleet` with the learning loop:
    at every simulated day boundary the service reconstructs the day's
    training streams from the archive byte-range written during that day,
    slides them into the retraining window, retrains the TTP (recency
    weighted, warm started — :class:`~repro.core.train.DailyRetrainer`
    semantics exactly), commits the new generation to ``registry_dir``,
    and enrolls it as a fresh arm for all subsequent days.

    ``archive_dir`` and ``registry_dir`` are mandatory: the archive *is*
    the training set, and the registry is both the product and the
    resume-time source of truth for model state.  A fresh run requires an
    empty registry; ``resume=True`` continues from the checkpoint
    (truncating the registry and archive back to the last durable commit),
    or starts fresh when no checkpoint exists yet — wiping whatever a
    crash before the first checkpoint may have left in the registry.

    The dump, checkpoint, registry, and archive are byte-identical at any
    worker count, any chunk size, and across ``kill -9`` + resume at any
    instant.
    """
    base_specs = list(base_specs)
    marker = f"{retrain.arm_prefix}@g"
    if any(spec.name.startswith(marker) for spec in base_specs):
        raise ValueError(
            f"base scheme names must not collide with generation arms "
            f"({marker}…)"
        )
    if config.edge is not None:
        raise ValueError(
            "edge cell mode is not supported with continual retraining "
            "(set FleetConfig.edge=None)"
        )
    # The arm set: base schemes plus every enrolled generation, in order.
    specs = list(base_specs)

    def days(
        arrivals: Iterator[SessionArrival],
        checkpoint: Optional[FleetCheckpoint],
        appender: ArchiveAppender,  # never None: the archive is mandatory
        extra: dict,
        save_checkpoint: Callable[[bool], None],
    ) -> Generator[_Segment, None, None]:
        """One segment per simulated day; each day's close retrains."""
        registry = ModelRegistry(registry_dir)
        if checkpoint is not None:
            state = extra.get("retrain")
            if state is None:
                raise RegistryError(
                    "checkpoint has no retrain state (written by plain "
                    "`repro fleet run`?)"
                )
            version = int(state.get("schema_version", 0))
            if version != RETRAIN_STATE_VERSION:
                raise RegistryError(
                    f"unsupported retrain state version {version}"
                )
        else:
            if len(registry) and not resume:
                raise RegistryError(
                    f"registry {registry.directory} is not empty; pass "
                    "resume=True to continue or point at a fresh directory"
                )
            # The service's whole state, kept where every checkpoint saves
            # it: ``window`` holds ``[day, start_offsets, end_offsets]`` per
            # day of the sliding window.
            state = extra["retrain"] = {
                "schema_version": RETRAIN_STATE_VERSION,
                "generations": 0,
                "day_counter": 0,
                "window": [],
                "day_start_offsets": appender.offsets(),
            }
        # Roll the registry back to the checkpointed generation count — to
        # empty under resume=True with no checkpoint yet, where a crash may
        # have landed before the first one.
        registry.truncate(int(state["generations"]))

        # Learner state: the predictor is the last committed generation (or
        # a fresh seeded init), the window is rebuilt from archive
        # byte-ranges.
        if len(registry):
            predictor = registry.load_predictor()
        else:
            predictor = TransmissionTimePredictor(
                retrain.ttp, seed=retrain.seed
            )
        retrainer = DailyRetrainer.restore(
            predictor,
            int(state["day_counter"]),
            [
                (int(day), appender.reconstruct_streams(start, end))
                for day, start, end in state["window"]
            ],
            window_days=retrain.window_days,
            recency_decay=retrain.recency_decay,
            epochs_per_day=retrain.epochs_per_day,
            seed=retrain.seed,
        )
        for entry in registry.generations:
            specs.append(
                generation_scheme_spec(
                    entry.arm, registry.load_predictor(entry.generation)
                )
            )

        def close_day() -> None:
            """Day boundary: slide the window, retrain, commit, enroll."""
            window = state["window"]
            appender.flush(sync=True)
            end_offsets = appender.offsets()
            day_streams = appender.reconstruct_streams(
                state["day_start_offsets"], end_offsets
            )
            retrainer.add_day(day_streams)
            window.append(
                [retrainer.current_day, state["day_start_offsets"], end_offsets]
            )
            del window[: max(0, len(window) - retrain.window_days)]
            state["day_start_offsets"] = end_offsets
            state["day_counter"] = retrainer.current_day
            datasets = retrainer.window_datasets()
            if datasets is not None:
                # The in-situ tail calibration uses the same window as
                # training (reconstructible from the checkpointed
                # byte-ranges, hence resume-exact).
                window_streams = [
                    stream
                    for _, streams in retrainer.window_state()
                    for stream in streams
                ]
                predictor.calibrate_tail(window_streams)
                try:
                    # The fit refuses a non-finite feature or weight up
                    # front; a step can still overflow.  All-NaN scores
                    # argmax to rung 0: the arm would stream the lowest
                    # quality and report it as Fugu's.
                    retrainer.retrain(datasets)
                    if not np.isfinite(predictor.stack.params).all():
                        raise ValueError("retraining left non-finite parameters")
                except ValueError as exc:
                    raise RegistryError(
                        f"day {retrainer.current_day}: generation "
                        f"{len(registry) + 1} is not published ({exc}); "
                        "repair the archive rows of that day and resume"
                    ) from exc
                evaluator = TtpTrainer(predictor)
                evaluation = []
                for k, dataset in enumerate(datasets):
                    result = evaluator.evaluate(dataset, step=k)
                    evaluation.append(
                        {
                            "step": k,
                            "cross_entropy": result.cross_entropy,
                            "bin_accuracy": result.bin_accuracy,
                            "expected_abs_error_s": (
                                result.expected_abs_error_s
                            ),
                            "n_examples": result.n_examples,
                        }
                    )
                entry = registry.commit(
                    day=retrainer.current_day,
                    arm=retrain.arm_name(len(registry) + 1),
                    state=predictor.state_dict(),
                    window_days=[day for day, _, _ in window],
                    n_streams_day=len(day_streams),
                    n_streams_window=len(window_streams),
                    evaluation=evaluation,
                )
                # Enroll the frozen generation as a fresh arm for all
                # subsequent days (sessions of *this* day never saw it).
                specs.append(
                    generation_scheme_spec(entry.arm, predictor.copy())
                )
                state["generations"] = len(registry)
                if obs.ENABLED:
                    obs.counter_inc("fleet.retrain.generations")
            if obs.ENABLED:
                obs.counter_inc("fleet.retrain.days")
            save_checkpoint(False)

        # Arrivals come time-ordered, so grouping by day splits them at the
        # day boundaries: chunks never span one.  A day nobody arrived in
        # has no group and no segment, but still closes.
        by_day = groupby(arrivals, key=lambda arrival: arrival.day)
        upcoming = next(by_day, None)
        total_days = int(math.ceil(config.workload.days))
        for day in range(int(state["day_counter"]), total_days):
            if upcoming is not None and upcoming[0] == day:
                # Every session of day ``d`` runs against the arm set as of
                # its start; the generation its close enrolls joins from
                # ``d + 1``.
                yield specs, upcoming[1]
                upcoming = next(by_day, None)
            close_day()

    result = _drive_fleet(
        base_specs,
        config,
        config_fingerprint(config.fingerprint(base_specs), retrain.to_dict()),
        days,
        workers,
        checkpoint_path,
        resume,
        str(archive_dir),
        stop_after_sessions,
        cli_args,
        on_commit,
    )
    result.scheme_names = [spec.name for spec in specs]
    return result
