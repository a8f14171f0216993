"""The newest committed benchmark snapshot (``BENCH_<n>.json``) is whole.

Each snapshot holds, under ``suite``, the file ``python3 perf/run.py --out
FILE`` wrote for one tree, beside the host it ran on.  These tests assert
no timing: only that every outcome was correct, that each draw-0 digest is
the one ``perf/reference_digests.json`` pins, and that every metric
``BENCHMARK.json`` declares was measured.
"""

import json
import re
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
DIGESTS = json.loads((REPO_ROOT / "perf" / "reference_digests.json").read_text())
PASSES = ("end_to_end", "per_layer")
"""Each pass's key in a suite, and the ``BENCHMARK.json`` list that
declares its metrics."""


def _newest_snapshot() -> Path:
    snapshots = {
        int(match.group(1)): path
        for path in REPO_ROOT.glob("BENCH_*.json")
        if (match := re.fullmatch(r"BENCH_(\d+)\.json", path.name))
    }
    assert snapshots, "no BENCH_<n>.json at the repository root"
    return snapshots[max(snapshots)]


SNAPSHOT = json.loads(_newest_snapshot().read_text())
WORKLOADS = [workload["name"] for workload in BENCHMARK["workloads"]]


def test_the_snapshot_records_its_tree_and_host():
    for key in (
        "git_sha", "dirty", "python", "numpy", "blas",
        "openblas_num_threads", "cpu_count",
    ):
        assert key in SNAPSHOT, key
    assert set(SNAPSHOT["suite"]) == set(WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("name", PASSES)
def test_every_outcome_is_correct_and_complete(workload, name):
    outcome = SNAPSHOT["suite"][workload][name]
    assert outcome["correct"] is True
    assert outcome["failed"] == 0
    assert outcome["info"]["digest"] == DIGESTS[workload]
    declared = {metric["name"] for metric in BENCHMARK[name]}
    assert declared <= set(outcome["metrics"])
