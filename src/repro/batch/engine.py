"""Stub kept for the frozen ``perf/seams.py``, which wraps
``repro.batch.engine.run_session_batch`` by name.  The fast path this module
held is the stream kernel :mod:`repro.streaming.fastpath`, which
:func:`repro.experiment.harness.session_machine` selects per session;
nothing in ``src/`` imports this module."""

from __future__ import annotations

from typing import List, Mapping, Optional, Sequence

from repro.abr.base import AbrAlgorithm
from repro.experiment.harness import SessionShard, TrialConfig, run_session
from repro.experiment.schemes import SchemeSpec


def run_session_batch(
    specs: Sequence[SchemeSpec],
    config: TrialConfig,
    session_ids: Sequence[int],
    expt_ids: Optional[Mapping[str, int]] = None,
    algorithms: Optional[Mapping[str, AbrAlgorithm]] = None,
) -> List[SessionShard]:
    return [
        run_session(specs, config, sid, expt_ids, algorithms)
        for sid in session_ids
    ]
