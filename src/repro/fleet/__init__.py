"""repro.fleet — deployment-scale workload generation and streaming
aggregation.

The paper's statistics come from *operating* Puffer continuously — months of
randomized sessions from ~63,000 users adding up to ~38 stream-years — not
from fixed-size batch runs.  ``repro.fleet`` turns the batch trial of
:mod:`repro.experiment` into an open-ended deployment simulator:

* :mod:`repro.fleet.workload` — seeded session-arrival processes over
  simulated calendar days (non-homogeneous Poisson with a diurnal cycle and
  optional flash crowds), with per-session viewer behaviour still drawn via
  :class:`repro.experiment.watch.ViewerModel` inside ``run_session``;
* :mod:`repro.fleet.sinks` — mergeable, *exactly*-merging streaming
  aggregates (integer-scaled exact sums, log-binned histograms reusing the
  bin layout of :mod:`repro.obs`) that consume each stream result as it
  completes and discard it, so memory is O(1) in the number of sessions;
* :mod:`repro.fleet.checkpoint` — crash-safe (tmp+rename) JSON checkpoints
  of the sink state and the next-undone session id, so a killed run resumes
  to a byte-identical metrics dump;
* :mod:`repro.fleet.runner` — the driver: reuses the pure
  :func:`repro.experiment.harness.run_session`, shards chunks across a
  forked process pool, commits results in session-id order, and checkpoints
  after every committed chunk;
* :mod:`repro.fleet.retrain` — the continual learning-in-situ service:
  consumes the streamed telemetry archive at simulated day boundaries,
  retrains the TTP per day (recency-weighted, warm-started), versions each
  generation in an on-disk :class:`ModelRegistry` with checkpointed
  lineage, and enrolls every generation as a fresh arm in the running RCT.

Determinism contract: the final metrics dump is **byte-identical** for the
same :class:`FleetConfig` regardless of worker count, of checkpoint cadence,
and of where (if anywhere) the run was killed and resumed.  This holds
because every accumulator in the sink layer merges *exactly* (integer
arithmetic), every per-session contribution is a pure function of
``(seed, session_id)``, and commits happen in session-id order.
"""

from repro.fleet.checkpoint import (
    CHECKPOINT_SCHEMA_VERSION,
    CheckpointError,
    CheckpointManager,
    FleetCheckpoint,
)
from repro.fleet.retrain import (
    REGISTRY_SCHEMA_VERSION,
    GenerationEntry,
    ModelRegistry,
    RegistryError,
    RetrainConfig,
    run_fleet_retrain,
)
from repro.fleet.runner import (
    FleetConfig,
    FleetResult,
    format_sink_table,
    run_fleet,
)
from repro.fleet.sinks import (
    ExactSum,
    FleetHistogram,
    FleetSink,
    StreamingMoments,
    StreamingSchemeSink,
    WeightedMoments,
)
from repro.fleet.workload import (
    FlashCrowd,
    SessionArrival,
    WorkloadConfig,
    WorkloadGenerator,
)

__all__ = [
    "CHECKPOINT_SCHEMA_VERSION",
    "CheckpointError",
    "CheckpointManager",
    "ExactSum",
    "FlashCrowd",
    "FleetCheckpoint",
    "FleetConfig",
    "FleetHistogram",
    "FleetResult",
    "FleetSink",
    "GenerationEntry",
    "ModelRegistry",
    "REGISTRY_SCHEMA_VERSION",
    "RegistryError",
    "RetrainConfig",
    "SessionArrival",
    "StreamingMoments",
    "StreamingSchemeSink",
    "WeightedMoments",
    "WorkloadConfig",
    "WorkloadGenerator",
    "format_sink_table",
    "run_fleet",
    "run_fleet_retrain",
]
