"""Which public callable each span wraps, and the per-layer metrics.

Span names are ``<module>.<operation>`` with the ``repro.`` prefix dropped;
``SPANS`` lists every one so a span that never fires on a workload still
reports ``calls = 0`` (the prediction "this layer is bypassed here" is a
number, not a missing row).
"""

from __future__ import annotations

import statistics
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Sequence

import repro.atomio
import repro.batch.engine
import repro.edge.engine
import repro.edge.fairshare
import repro.experiment.harness
from repro.batch.menus import MenuBlockSource
from repro.core.controller import ValueIterationController
from repro.core.fugu import Fugu
from repro.core.train import DailyRetrainer
from repro.core.ttp import TransmissionTimePredictor
from repro.data.archive import ArchiveAppender
from repro.edge.cache import EdgeCache
from repro.experiment.schemes import SchemeSpec
from repro.fleet import ModelRegistry, WorkloadGenerator
from repro.fleet.checkpoint import CheckpointManager
from repro.fleet.sinks import FleetSink, StreamingSchemeSink
from repro.learn.network import MLP
from repro.learn.training import Trainer
from repro.media.encoder import VbrEncoder
from repro.net.path import NetworkPath, PathSampler
from repro.net.tcp import TcpConnection

from spans import Tracer

ROOT_SPAN = "fleet.run"

SPANS = (
    ROOT_SPAN,
    "fleet.workload.arrivals",
    "experiment.run_session",
    "net.path.sample",
    "net.connect",
    "net.transmit",
    "media.encode",
    "media.menu_block",
    "abr.choose",
    "core.fugu.choose",
    "core.mpc.plan",
    "core.ttp.predict",
    "learn.mlp.forward",
    "batch.run_session_batch",
    "edge.run_cell",
    "edge.fairshare.solve",
    "edge.cache.lookup",
    "fleet.sink.observe",
    "fleet.sink.merge",
    "fleet.checkpoint.save",
    "atomio.write",
    "data.archive.append",
    "data.archive.flush",
    "data.archive.read",
    "core.train.retrain",
    "learn.trainer.fit",
    "fleet.registry.commit",
    "fleet.registry.load",
)

GLUE = "streaming.glue"
"""``experiment.run_session``'s self time under its own name: what is left
of a scalar session once net, media and decide are taken out is
``session_machine`` + ``stream_machine`` + the playback buffer, which cannot
be told apart from outside."""


def _arg(args: tuple, kwargs: dict, position: int, name: str) -> Any:
    return args[position] if len(args) > position else kwargs[name]


def install(tracer: Tracer, specs: Sequence[SchemeSpec]) -> None:
    """Wrap every seam.  ``specs`` names the arms whose ``choose`` to wrap:
    on the class, because the batch kernel dispatches on exact type."""
    method, function = tracer.patch_method, tracer.patch_function

    method(
        "fleet.workload.arrivals", WorkloadGenerator, "arrivals", iterator=True
    )
    function(
        "experiment.run_session",
        repro.experiment.harness,
        "run_session",
        session_of=lambda a, k: int(_arg(a, k, 2, "session_id")),
    )
    method("net.path.sample", PathSampler, "next_path")
    method("net.connect", NetworkPath, "connect")
    method(
        "net.transmit",
        TcpConnection,
        "transmit",
        count=("net.transmit.rounds", lambda a, k, r: r.rounds),
    )
    method("media.encode", VbrEncoder, "encode_chunk")
    for attr in ("next_row", "row_arrays", "next_menu"):
        method("media.menu_block", MenuBlockSource, attr)
    method("core.fugu.choose", Fugu, "choose")
    for arm in {type(spec.build()) for spec in specs}:
        if not issubclass(arm, Fugu):
            method("abr.choose", arm, "choose")
    method("core.mpc.plan", ValueIterationController, "plan")
    method("core.ttp.predict", TransmissionTimePredictor, "predict")
    method("learn.mlp.forward", MLP, "predict_proba")
    function(
        "batch.run_session_batch", repro.batch.engine, "run_session_batch"
    )
    function(
        "edge.run_cell",
        repro.edge.engine,
        "run_cell",
        session_of=lambda a, k: int(_arg(a, k, 2, "cell").start_session_id),
    )
    function("edge.fairshare.solve", repro.edge.fairshare, "max_min_shares")
    method("edge.cache.lookup", EdgeCache, "lookup")
    method("fleet.sink.observe", StreamingSchemeSink, "observe_stream")
    method("fleet.sink.merge", FleetSink, "merge")
    method("fleet.checkpoint.save", CheckpointManager, "save")
    function(
        "atomio.write",
        repro.atomio,
        "atomic_write_bytes",
        count=(
            "atomio.write.bytes",
            lambda a, k, r: len(_arg(a, k, 1, "data")),
        ),
    )
    method("data.archive.append", ArchiveAppender, "append")
    method("data.archive.flush", ArchiveAppender, "flush")
    for attr in ("read_slice", "reconstruct_streams"):
        method("data.archive.read", ArchiveAppender, attr)
    method("core.train.retrain", DailyRetrainer, "retrain")
    method(
        "learn.trainer.fit",
        Trainer,
        "fit",
        count=(
            "core.train.samples",
            lambda a, k, r: len(_arg(a, k, 1, "dataset")),
        ),
    )
    method("fleet.registry.commit", ModelRegistry, "commit")
    method("fleet.registry.load", ModelRegistry, "load_predictor")


@contextmanager
def installed(tracer: Tracer, specs: Sequence[SchemeSpec]) -> Iterator[None]:
    """Every seam wrapped for the enclosed block only: the originals come
    back when it ends, also by exception."""
    try:
        install(tracer, specs)
        yield
    finally:
        tracer.restore()


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def percentile(values: List[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def layer_metrics(tracer: Tracer, sessions: int) -> Dict[str, float]:
    """Every span-derived per-layer metric of one traced pass that
    committed ``sessions`` sessions."""
    summary = tracer.summary()
    empty = {"calls": 0, "self_s": 0.0, "total_s": 0.0, "durations": []}
    root_wall = summary.get(ROOT_SPAN, empty)["total_s"]
    out: Dict[str, float] = {}
    for name in SPANS:
        entry = summary.get(name, empty)
        label = GLUE if name == "experiment.run_session" else name
        out[f"{name}.calls"] = entry["calls"]
        out[f"{label}.self_s"] = entry["self_s"]
        out[f"{label}.share"] = _ratio(entry["self_s"], root_wall)

    def calls(name: str) -> int:
        return summary.get(name, empty)["calls"]

    def total_s(name: str) -> float:
        return summary.get(name, empty)["total_s"]

    walls = summary.get("experiment.run_session", empty)["durations"]
    out["experiment.run_session.p50_ms"] = 1e3 * (
        statistics.median(walls) if walls else 0.0
    )
    out["experiment.run_session.p90_ms"] = 1e3 * percentile(walls, 0.9)
    counters = tracer.counters
    out["net.transmit.rounds_per_call"] = _ratio(
        counters.get("net.transmit.rounds", 0.0), calls("net.transmit")
    )
    out["media.encode.us_per_chunk"] = 1e6 * _ratio(
        total_s("media.encode"), calls("media.encode")
    )
    out["abr.choose.us_per_call"] = 1e6 * _ratio(
        total_s("abr.choose"), calls("abr.choose")
    )
    out["core.mpc.plan.us_per_call"] = 1e6 * _ratio(
        total_s("core.mpc.plan"), calls("core.mpc.plan")
    )
    out["core.ttp.predict.per_decide"] = _ratio(
        calls("core.ttp.predict"), calls("core.fugu.choose")
    )
    out["atomio.write.bytes"] = counters.get("atomio.write.bytes", 0.0)
    out["atomio.write.ms_per_call"] = 1e3 * _ratio(
        total_s("atomio.write"), calls("atomio.write")
    )
    out["core.train.samples"] = counters.get("core.train.samples", 0.0)
    # Sessions that entered the batch kernel and came back out through the
    # scalar run_session: work the kernel could not vectorise.
    names, spans = tracer.names, tracer.spans
    fallbacks = sum(
        1
        for span in tracer.closed_spans()
        if names[span[0]] == "experiment.run_session"
        and span[3] >= 0
        and names[spans[span[3]][0]] == "batch.run_session_batch"
    )
    out["batch.fallback_share"] = _ratio(fallbacks, sessions)
    return out
