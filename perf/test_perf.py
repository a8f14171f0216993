"""Checks on the benchmark itself (``python -m pytest perf/ -q``, < 60 s).

Everything runs at ``--scale 0.05``: a handful of sessions per workload,
enough to drive every code path of the benchmark but none of its timings.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

PERF = Path(__file__).resolve().parent
ROOT = PERF.parent
sys.path[:0] = [str(ROOT / "src"), str(PERF)]

import run  # noqa: E402
import seams  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
NAME = re.compile(r"[A-Za-z0-9_.-]+")
SCALE = 0.05


def test_benchmark_json_declares_what_exists():
    assert WORKLOADS == list(workloads.BUILDERS)
    names = WORKLOADS + [m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]]
    assert len(set(names)) == len(names)
    assert all(NAME.fullmatch(name) for name in names)
    assert "setup_s" in {m["name"] for m in BENCH["end_to_end"]}
    assert len(BENCH["per_layer"]) <= 128
    assert set(json.loads(run.REFERENCE.read_text())) == set(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_cli_emits_every_declared_metric(workload, trace):
    out = subprocess.run(
        [
            sys.executable, str(PERF / "run.py"),
            "--workload", workload, "--seed", "7", "--seconds", "0",
            "--trace", str(trace), "--scale", str(SCALE),
        ],
        capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = BENCH["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def _traced_pass(name: str):
    case = workloads.BUILDERS[name](7, SCALE * 4)
    expected = case.expected_sessions()
    untraced = run.repeat_once(case, expected, workers=1)
    tracer = Tracer()
    with seams.installed(tracer, case.specs):
        patched = list(tracer._patches)
        assert all(vars(owner)[attr] is not orig for owner, attr, orig in patched)
        traced = run.repeat_once(
            case, expected, workers=1, root=tracer.span(seams.ROOT_SPAN)
        )
    return untraced, traced, tracer, patched


@pytest.mark.parametrize("workload", ["fugu_scalar", "cells_pool"])
def test_traced_pass_is_invisible_and_complete(workload):
    untraced, traced, tracer, patched = _traced_pass(workload)
    # Every seam is the original object again.
    assert patched and not tracer._patches
    assert all(vars(owner)[attr] is orig for owner, attr, orig in patched)
    # Tracing does not perturb the simulation.
    assert untraced.ok and traced.ok
    assert untraced.digest == traced.digest
    # Self times partition the root span.
    summary = tracer.summary()
    root = summary[seams.ROOT_SPAN]["total_s"]
    assert summary[seams.ROOT_SPAN]["calls"] == 1
    total_self = sum(entry["self_s"] for entry in summary.values())
    assert abs(total_self - root) <= 0.01 * root
    # Children name their parent, and sessions propagate downwards.
    rows = tracer.to_rows()
    by_id = {row["id"]: row for row in rows}
    assert all(r["parent"] in by_id for r in rows if r["parent"] >= 0)
    assert any(r["session"] >= 0 for r in rows if r["name"] == "core.mpc.plan")


def test_seams_restored_when_the_pass_raises():
    case = workloads.BUILDERS["bba_batch"](7, SCALE)
    tracer = Tracer()
    patched = []
    with pytest.raises(RuntimeError, match="mid-pass"):
        with seams.installed(tracer, case.specs):
            patched = list(tracer._patches)
            raise RuntimeError("mid-pass")
    assert patched and not tracer._patches
    assert all(vars(owner)[attr] is orig for owner, attr, orig in patched)


def test_wrong_output_is_a_failed_repetition():
    case = workloads.BUILDERS["bba_batch"](7, SCALE)
    good = run.repeat_once(case, case.expected_sessions())
    short = run.repeat_once(case, case.expected_sessions() + 1)
    assert good.ok and not short.ok
    other = run.repeat_once(
        workloads.BUILDERS["bba_batch"](8, SCALE), case.expected_sessions()
    )
    reps = [good, other]
    run.check_digests(reps, None)
    assert good.ok and not other.ok


def test_exits_nonzero_without_the_program(tmp_path):
    (tmp_path / "perf").mkdir()
    for path in PERF.iterdir():
        if path.is_file():
            (tmp_path / "perf" / path.name).write_bytes(path.read_bytes())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(BENCH))
    out = subprocess.run(
        [sys.executable, "perf/run.py", "--workload", "bba_batch", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout == ""
