"""The four benchmark workloads, built from a seed.

Each workload is one call into the public fleet API with inputs generated
from ``--seed``: a run measures several *draws*, and the arrival seed, the
trial seed and the edge seed of draw ``k`` are three independent words of
``numpy.random.SeedSequence((seed, k))``.  No workload name ever reaches
``src/`` — the program sees configs and specs.

Sizes are chosen so one draw usually takes 3–5 s at workers=1.  The three
``run_fleet`` workloads keep the stock ``TrialConfig`` viewer, heavy tail
included: how many stream-hours a draw holds varies several-fold at these
sizes (one four-hour session outweighs forty ordinary ones), which is why
the benchmark's timing is stream-hours per second, not sessions per second,
and the median over draws, not one draw repeated.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from typing import Callable, List, Optional

import numpy as np

from repro.abr.bba import BBA
from repro.abr.bola import Bola
from repro.abr.mpc import MpcHm, RobustMpcHm
from repro.abr.rate_based import RateBased
from repro.core.fugu import Fugu
from repro.edge.cells import EdgeConfig
from repro.experiment.harness import TrialConfig
from repro.experiment.presets import smoke_trial_config
from repro.experiment.schemes import SchemeSpec
from repro.fleet import (
    FleetConfig,
    FleetResult,
    RetrainConfig,
    WorkloadConfig,
    WorkloadGenerator,
    run_fleet,
    run_fleet_retrain,
)

from fixture import load_ttp

DEFAULT_SEED = 20200225
"""The seed ``reference_digests.json`` was blessed at."""


def _spec(name: str, factory: Callable[[], object]) -> SchemeSpec:
    return SchemeSpec(
        name=name,
        control="",
        predictor="",
        optimization_goal="",
        how_trained="",
        factory=factory,
    )


@dataclass
class Case:
    """One workload at one seed: the call and what it must return."""

    specs: List[SchemeSpec]
    config: FleetConfig
    workers: int = 1
    checkpoint: bool = False
    retrain: Optional[RetrainConfig] = None

    def expected_sessions(self) -> int:
        return WorkloadGenerator(self.config.workload).count()

    def run(
        self,
        workdir: str,
        workers: Optional[int] = None,
        on_commit: Optional[Callable] = None,
    ) -> FleetResult:
        """Make the call.  ``workdir`` must be fresh: the checkpoint,
        archive and registry of one repetition live (and die) there."""
        workers = self.workers if workers is None else workers
        checkpoint = (
            os.path.join(workdir, "fleet.ckpt") if self.checkpoint else None
        )
        if self.retrain is not None:
            return run_fleet_retrain(
                self.specs,
                self.config,
                self.retrain,
                archive_dir=os.path.join(workdir, "archive"),
                registry_dir=os.path.join(workdir, "registry"),
                workers=workers,
                checkpoint_path=checkpoint,
                on_commit=on_commit,
            )
        return run_fleet(
            self.specs,
            self.config,
            workers=workers,
            checkpoint_path=checkpoint,
            on_commit=on_commit,
        )

    def digest(self, result: FleetResult, workdir: str) -> str:
        """SHA-256 of the deterministic outputs: the metrics dump, plus the
        registry manifest (which chains every generation's hash) when the
        call retrains."""
        h = hashlib.sha256(
            json.dumps(result.to_dump_dict(), sort_keys=True).encode("utf-8")
        )
        if self.retrain is not None:
            manifest = os.path.join(workdir, "registry", "manifest.json")
            with open(manifest, "rb") as f:
                h.update(f.read())
        return h.hexdigest()


def _seeds(seed: int, draw: int) -> List[int]:
    """The arrival, trial and edge seeds of the ``draw``-th input of a run."""
    return [
        int(s) for s in np.random.SeedSequence((seed, draw)).generate_state(3)
    ]


def _flat_load(sessions: float, per_hour: float, seed: int) -> WorkloadConfig:
    """About ``sessions`` arrivals at a constant ``per_hour`` intensity."""
    return WorkloadConfig(
        days=sessions / per_hour / 24.0,
        sessions_per_hour=per_hour,
        diurnal_amplitude=0.0,
        seed=seed,
    )


def fugu_scalar(seed: int, scale: float, draw: int = 0) -> Case:
    """Fugu alone.  With ``mpc_hm`` beside it (0.7 ms a chunk against Fugu's
    1.8 ms) a draw's stream-hours per second says which arm drew the long
    sessions: over thirty draws of equal host time its coefficient of
    variation was 0.207, against 0.043 for Fugu alone.  ``cells_pool`` and
    ``retrain_days`` run ``mpc_hm``."""
    arrival_seed, trial_seed, _ = _seeds(seed, draw)
    ttp = load_ttp()
    return Case(
        specs=[_spec("fugu", lambda: Fugu(ttp))],
        config=FleetConfig(
            workload=_flat_load(22 * scale, 60.0, arrival_seed),
            trial=TrialConfig(seed=trial_seed),
        ),
    )


def bba_batch(seed: int, scale: float, draw: int = 0) -> Case:
    arrival_seed, trial_seed, _ = _seeds(seed, draw)
    return Case(
        specs=[
            _spec("bba", BBA),
            _spec("bola", Bola),
            _spec("rate_based", RateBased),
        ],
        config=FleetConfig(
            workload=_flat_load(320 * scale, 60.0, arrival_seed),
            trial=TrialConfig(seed=trial_seed),
        ),
    )


def cells_pool(seed: int, scale: float, draw: int = 0) -> Case:
    """The two MPC arms, which cost about the same per stream-hour in cells
    (0.86 and 0.71 h/s alone; ``bba`` 1.84).  With ``bba`` beside them the
    draw's rate says which arm drew the long sessions: over thirty draws of
    equal host time its coefficient of variation was 0.115, against 0.070
    for these two.  ``bba`` runs in ``bba_batch`` and ``retrain_days``."""
    arrival_seed, trial_seed, edge_seed = _seeds(seed, draw)
    return Case(
        specs=[
            _spec("mpc_hm", MpcHm),
            _spec("robust_mpc_hm", RobustMpcHm),
        ],
        config=FleetConfig(
            # 200 sessions/h, so the sessions of a cell overlap in time.
            workload=_flat_load(60 * scale, 200.0, arrival_seed),
            trial=TrialConfig(seed=trial_seed),
            edge=EdgeConfig(
                mean_cell_sessions=6,
                cell_capacity_bps=20e6,
                cache_chunks=256,
                seed=edge_seed,
            ),
        ),
        workers=2,
        checkpoint=True,
    )


def retrain_days(seed: int, scale: float, draw: int = 0) -> Case:
    arrival_seed, trial_seed, _ = _seeds(seed, draw)
    return Case(
        specs=[_spec("bba", BBA), _spec("mpc_hm", MpcHm)],
        config=FleetConfig(
            workload=WorkloadConfig(
                days=3.0, sessions_per_hour=0.9 * scale, seed=arrival_seed
            ),
            trial=smoke_trial_config(trial_seed),
        ),
        checkpoint=True,
        retrain=RetrainConfig(epochs_per_day=8),
    )


BUILDERS = {
    "fugu_scalar": fugu_scalar,
    "bba_batch": bba_batch,
    "cells_pool": cells_pool,
    "retrain_days": retrain_days,
}
