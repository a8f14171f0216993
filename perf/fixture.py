"""The checked-in trained TTP that ``fugu_scalar`` decides with.

Training a 22→64→64→21 predictor in situ takes about a minute; a benchmark
that paid that in set-up would measure training, not streaming.  The
predictor was therefore trained once, with the fixed configuration below,
and its ``state_dict`` is checked in as ``fixtures/ttp_state.json``.  The
loader refuses a file whose SHA-256 differs from the pinned one, so a
silently regenerated fixture cannot shift every Fugu number.

Regenerate (and re-pin ``TTP_SHA256``, then ``run.py --rebless``) with::

    python3 perf/fixture.py --regenerate
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

FIXTURE_PATH = Path(__file__).resolve().parent / "fixtures" / "ttp_state.json"

TTP_SHA256 = "8ac62f6ba181a7d7cdf1eef1334f21024eab97b7516963ea10d7542c593395d5"

TRAINING_SEED = 20200225
"""Seed of the one-off ``train_fugu_in_situ`` run (all other knobs are the
``InSituTrainingConfig`` defaults: 120 bootstrap streams, 2 on-policy
iterations of 120 streams, 15 epochs)."""


def load_ttp():
    """The fixture as a :class:`TransmissionTimePredictor` (hash-checked)."""
    from repro.core.ttp import TransmissionTimePredictor

    data = FIXTURE_PATH.read_bytes()
    digest = hashlib.sha256(data).hexdigest()
    if digest != TTP_SHA256:
        raise RuntimeError(
            f"{FIXTURE_PATH} has SHA-256 {digest}, expected {TTP_SHA256}: "
            "the TTP fixture changed; see perf/fixtures/README.md"
        )
    return TransmissionTimePredictor.from_state_dict(json.loads(data))


def regenerate() -> str:
    """Retrain the fixture from scratch and return its new SHA-256."""
    from repro.experiment.insitu import InSituTrainingConfig, train_fugu_in_situ

    predictor = train_fugu_in_situ(InSituTrainingConfig(seed=TRAINING_SEED))
    data = json.dumps(
        predictor.state_dict(), sort_keys=True, separators=(",", ":")
    ).encode("utf-8")
    FIXTURE_PATH.parent.mkdir(parents=True, exist_ok=True)
    FIXTURE_PATH.write_bytes(data + b"\n")
    return hashlib.sha256(data + b"\n").hexdigest()


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit("usage: python3 perf/fixture.py --regenerate")
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    print(f"TTP_SHA256 = {regenerate()!r}")
