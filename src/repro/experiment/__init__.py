"""The Puffer randomized controlled trial (§3) as a harness.

Blinded random assignment of sessions to schemes, heavy-tailed viewer
behaviour, CONSORT exclusion accounting, and the in-situ training loop that
produces Fugu's deployed predictor.
"""

from repro.experiment.consort import (
    MIN_WATCH_TIME_S,
    ConsortArm,
    ConsortFlow,
    classify_stream,
    eligible_streams,
)
from repro.experiment.harness import (
    RandomizedTrial,
    SessionResult,
    SessionShard,
    TrialConfig,
    TrialResult,
    assign_expt_ids,
    merge_shards,
    run_session,
)
from repro.experiment.insitu import (
    InSituTrainingConfig,
    deploy_and_collect,
    train_fugu_in_situ,
    train_pensieve_in_simulation,
)
from repro.experiment.presets import (
    bench_trial_config,
    paper_scale_trial_config,
    smoke_trial_config,
)
from repro.experiment.schemes import (
    SchemeSpec,
    primary_experiment_schemes,
    scheme_table,
)
from repro.experiment.watch import PAPER_SCALE_VIEWER, ViewerModel

__all__ = [
    "RandomizedTrial",
    "TrialConfig",
    "TrialResult",
    "SessionResult",
    "SessionShard",
    "assign_expt_ids",
    "merge_shards",
    "run_session",
    "SchemeSpec",
    "primary_experiment_schemes",
    "scheme_table",
    "ViewerModel",
    "PAPER_SCALE_VIEWER",
    "ConsortFlow",
    "ConsortArm",
    "classify_stream",
    "eligible_streams",
    "MIN_WATCH_TIME_S",
    "InSituTrainingConfig",
    "train_fugu_in_situ",
    "train_pensieve_in_simulation",
    "deploy_and_collect",
    "smoke_trial_config",
    "bench_trial_config",
    "paper_scale_trial_config",
]
