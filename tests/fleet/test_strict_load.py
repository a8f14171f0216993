"""Strict loading of every count a sink or histogram saves.

A count that is not a whole number ≥ 0 (2.5, ``true``, -3) must never load
truncated or as given: it raises ``ValueError`` naming the field, which a
checkpoint load turns into :class:`~repro.fleet.checkpoint.CheckpointError`.
The cases come from the declarations themselves (``ExactAggregate.FIELDS``
and a saved sink's own keys), so a new field is covered with no test edit.
"""

import dataclasses
import json
import re

import pytest

from repro.fleet.checkpoint import (
    CheckpointError,
    CheckpointManager,
    FleetCheckpoint,
)
from repro.fleet.sinks import (
    DURATION_SPEC,
    ExactAggregate,
    FleetHistogram,
    FleetSink,
    StreamingMoments,
    StreamingSchemeSink,
    WeightedMoments,
)
from repro.obs.registry import Histogram, TIME_SPEC

from tests.fleet.test_sinks import make_stream

BAD_COUNTS = [2.5, True, -3]

AGGREGATES = [StreamingMoments, WeightedMoments, StreamingSchemeSink]


def fresh(cls):
    return cls("x") if cls.KEY is not None else cls()


def count_fields(cls):
    """The fields ``cls`` declares as ``int`` counts."""
    return [name for name, count in cls.FIELDS if count]


COUNT_CASES = [
    pytest.param(cls, name, id=f"{cls.__name__}.{name}")
    for cls in AGGREGATES
    for name in count_fields(cls)
]


def saved(obj) -> dict:
    return json.loads(json.dumps(obj.to_dict()))


def whole_number_error(label: str) -> str:
    return rf"{re.escape(label)} must be a whole number ≥ 0"


class TestDeclaredFields:
    @pytest.mark.parametrize("cls", AGGREGATES, ids=lambda c: c.__name__)
    def test_saved_keys_are_the_declaration(self, cls):
        assert issubclass(cls, ExactAggregate)
        key = () if cls.KEY is None else (cls.KEY,)
        names = tuple(name for name, _ in cls.FIELDS)
        assert tuple(saved(fresh(cls))) == key + names
        declared = tuple(f.name for f in dataclasses.fields(cls))
        assert sorted(key + names) == sorted(declared)

    @pytest.mark.parametrize("cls", AGGREGATES, ids=lambda c: c.__name__)
    def test_declared_counts_are_the_int_fields(self, cls):
        instance = fresh(cls)
        assert [count for _, count in cls.FIELDS] == [
            type(getattr(instance, name)) is int for name, _ in cls.FIELDS
        ]

    def test_every_aggregate_declares_a_count(self):
        assert all(count_fields(cls) for cls in AGGREGATES)

    @pytest.mark.parametrize("bad", BAD_COUNTS, ids=repr)
    @pytest.mark.parametrize("cls, name", COUNT_CASES)
    def test_declared_count_refuses_a_corrupt_value(self, cls, name, bad):
        data = saved(fresh(cls))
        data[name] = bad
        with pytest.raises(
            ValueError, match=whole_number_error(f"{cls.__name__}.{name}")
        ):
            cls.from_dict(data)

    @pytest.mark.parametrize("cls, name", COUNT_CASES)
    def test_declared_count_loads_a_whole_number(self, cls, name):
        data = saved(fresh(cls))
        data[name] = 7
        loaded = cls.from_dict(data)
        assert getattr(loaded, name) == 7
        assert type(getattr(loaded, name)) is int
        assert saved(loaded) == data


def histogram_labels(hist):
    labels = ["underflow", "overflow"]
    labels += [f"counts[{i}]" for i in range(hist.spec.n_bins)]
    if isinstance(hist, Histogram):
        labels.append("count")
    return labels


def set_label(data: dict, label: str, value) -> None:
    match = re.fullmatch(r"(\w+)\[(\d+)\]", label)
    if match:
        data[match.group(1)][int(match.group(2))] = value
    else:
        data[label] = value


class TestHistogramCounts:
    @pytest.mark.parametrize("bad", BAD_COUNTS, ids=repr)
    @pytest.mark.parametrize(
        "hist",
        [Histogram(TIME_SPEC), FleetHistogram(DURATION_SPEC)],
        ids=lambda h: type(h).__name__,
    )
    def test_every_count_refuses_a_corrupt_value(self, hist, bad):
        for label in histogram_labels(hist):
            data = saved(hist)
            set_label(data, label, bad)
            with pytest.raises(
                ValueError,
                match=whole_number_error(f"{type(hist).__name__}.{label}"),
            ):
                type(hist).from_dict(data)


def populated_sink() -> FleetSink:
    sink = FleetSink()
    sink.sessions = 3
    sink.streams = 4
    sink.sessions_by_day = {0: 2, 1: 1}
    sink.arrivals_by_hour[20] = 3
    sink.sim_watch_s.add(1234.5)
    for name in ("bba", "mpc_hm"):
        scheme = sink.scheme(name)
        scheme.observe_stream(make_stream(0, play=200.0, stall=1.0))
        scheme.observe_session_duration(250.0)
    return sink


def count_paths(node, path=()):
    """Every whole-number leaf of a saved sink, but its layout version."""
    if isinstance(node, dict):
        for key, value in node.items():
            if key != "schema_version":
                yield from count_paths(value, path + (key,))
    elif isinstance(node, list):
        for index, value in enumerate(node):
            yield from count_paths(value, path + (index,))
    elif type(node) is int:
        yield path


def label_of(path) -> str:
    """How the load names the field at ``path``."""
    if isinstance(path[-1], int) or path[-2:-1] == ("sessions_by_day",):
        return f"{path[-2]}[{path[-1]}]"
    return path[-1]


class TestCheckpointRefusesCorruptCounts:
    def test_the_walk_reaches_every_kind_of_count(self):
        labels = {label_of(p) for p in count_paths(populated_sink().to_dict())}
        for name in ("sessions", "streams", "sessions_by_day[0]",
                     "arrivals_by_hour[20]", "did_not_begin", "n",
                     "underflow", "overflow", "counts[0]", "n_bins"):
            assert name in labels

    @pytest.mark.parametrize("bad", BAD_COUNTS, ids=repr)
    def test_every_count_in_a_checkpoint(self, tmp_path, bad):
        checkpoint = FleetCheckpoint(
            fingerprint="f", next_session_id=3, sink=populated_sink()
        )
        reference = json.loads(json.dumps(checkpoint.to_dict()))
        path = tmp_path / "fleet.ckpt"
        manager = CheckpointManager(str(path))
        paths = list(count_paths(reference["sink"]))
        assert len(paths) > 100
        for count_path in paths:
            data = json.loads(json.dumps(reference))
            node = data["sink"]
            for key in count_path[:-1]:
                node = node[key]
            node[count_path[-1]] = bad
            path.write_text(json.dumps(data))
            with pytest.raises(CheckpointError) as raised:
                manager.load()
            assert re.search(re.escape(label_of(count_path)), str(raised.value)), (
                count_path, str(raised.value)
            )
