"""Golden bytes of the fleet's dump and checkpoint.

Pins the SHA-256 of the metrics dump and of the final checkpoint file for
two tiny runs: a classic run and a cell-mode run (``FleetConfig.edge``
set), both over ``tests/fleet/conftest.py``'s classical schemes and
``smoke_trial_config(seed=11)``.  The dump is the paper's Fig. 1 and
Fig. A1 as data and the checkpoint is what a resume reads back, so a
change to how any sink merges, saves or loads its state that alters a
single byte fails here, in tier-1 (``perf/reference_digests.json`` pins
dump bytes too, but runs outside it).

Re-blessing
-----------
If a change is *intended* to alter either file, regenerate the fixture
and commit it alongside the change::

    REPRO_REBLESS_GOLDEN=1 PYTHONPATH=src python -m pytest \
        tests/fleet/test_golden_fleet.py -q

then say why in the commit message.
"""

import hashlib
import json
import os
from pathlib import Path

import pytest

from repro.edge.cells import EdgeConfig
from repro.experiment.presets import smoke_trial_config
from repro.fleet.checkpoint import CheckpointManager
from repro.fleet.runner import FleetConfig, run_fleet
from repro.fleet.workload import WorkloadConfig

from tests.fleet.conftest import classical_specs

GOLDEN_PATH = Path(__file__).parent / "golden_fleet.json"
REBLESS_ENV = "REPRO_REBLESS_GOLDEN"


def golden_configs():
    workload = WorkloadConfig(days=0.02, sessions_per_hour=80.0, seed=5)
    trial = smoke_trial_config(seed=11)
    return {
        "classic": FleetConfig(
            workload=workload, trial=trial, chunk_sessions=8
        ),
        "cells": FleetConfig(
            workload=workload,
            trial=trial,
            chunk_sessions=8,
            edge=EdgeConfig(mean_cell_sessions=3.0, seed=11),
        ),
    }


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_and_digest(name: str, config: FleetConfig, directory: Path) -> dict:
    checkpoint = directory / f"{name}.ckpt"
    dump = directory / f"{name}.json"
    run_fleet(
        classical_specs(), config, checkpoint_path=str(checkpoint)
    ).dump(str(dump))
    return {"dump": _sha256(dump), "checkpoint": _sha256(checkpoint)}


def load_golden() -> dict:
    with open(GOLDEN_PATH) as f:
        return json.load(f)


@pytest.mark.parametrize("name", sorted(golden_configs()))
def test_dump_and_checkpoint_match_golden_digests(name, tmp_path):
    got = run_and_digest(name, golden_configs()[name], tmp_path)
    if os.environ.get(REBLESS_ENV):
        golden = load_golden() if GOLDEN_PATH.exists() else {}
        golden["_comment"] = (
            "SHA-256 of the fleet dump and final checkpoint of two tiny "
            f"runs. Re-bless intentionally with {REBLESS_ENV}=1 (see "
            "test_golden_fleet.py docstring)."
        )
        golden[name] = got
        GOLDEN_PATH.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
        pytest.skip(f"re-blessed {name} in {GOLDEN_PATH}")
    expected = load_golden()[name]
    assert got["dump"] == expected["dump"], (
        f"{name}: dump bytes drifted; if intended, re-bless with "
        f"{REBLESS_ENV}=1"
    )
    assert got["checkpoint"] == expected["checkpoint"], (
        f"{name}: checkpoint bytes drifted; if intended, re-bless with "
        f"{REBLESS_ENV}=1"
    )


@pytest.mark.parametrize("name", sorted(golden_configs()))
def test_checkpoint_load_then_save_is_byte_identical(name, tmp_path):
    run_and_digest(name, golden_configs()[name], tmp_path)
    path = tmp_path / f"{name}.ckpt"
    original = path.read_bytes()
    manager = CheckpointManager(str(path))
    manager.save(manager.load())
    assert path.read_bytes() == original
