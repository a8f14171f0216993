"""The field vocabulary (:mod:`repro.fields`) and the declarations that use it.

Every config and model dataclass declares the kind of each numeric field
once, in ``KINDS``.  These tests read the declarations of every such class
in ``repro`` and feed each field every absurd value its kind excludes: each
must be refused with a ``ValueError`` naming ``Class.field``.  A field
added to a declaration is fuzzed here with no edit.
"""

import dataclasses
import importlib
import math
import pkgutil

import numpy as np
import pytest

import repro
from repro import fields
from repro.net.link import ConstantLink, HeavyTailLink


def _declaring_classes():
    found = {}
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        module = importlib.import_module(info.name)
        for value in vars(module).values():
            if (
                isinstance(value, type)
                and value.__module__ == module.__name__
                and "KINDS" in vars(value)
            ):
                found[value.__name__] = value
    return [found[name] for name in sorted(found)]


CLASSES = _declaring_classes()

#: What a class with required fields needs besides the field under test.
REQUIRED = {
    "Cell": {"cell_id": 0, "start_session_id": 0, "size": 1},
    "Channel": {"name": "abc"},
    "FlashCrowd": {"start_day": 0.0, "duration_hours": 1.0, "multiplier": 2.0},
    "NetworkPath": {"link": ConstantLink(1e6), "base_rtt": 0.05},
}

#: Refused by every kind.
ALWAYS_ABSURD = [math.nan, math.inf, -math.inf, True, "3"]

#: Refused by the kind besides :data:`ALWAYS_ABSURD`.
EXCLUDED = {
    fields.finite: [],
    fields.positive: [-1, 0],
    fields.non_negative: [-1],
    fields.probability: [-1, 2.5],
    fields.whole: [-1, 2.5],
    fields.whole_positive: [-1, 0, 2.5],
}

#: Each of these was accepted before the declarations existed.
ONCE_ACCEPTED = [
    ("RetrainConfig", "window_days", math.nan),
    ("RetrainConfig", "window_days", 2.5),
    ("RetrainConfig", "epochs_per_day", 2.5),
    ("RetrainConfig", "seed", 2.5),
    ("TrialConfig", "n_sessions", 2.5),
    ("TrialConfig", "max_streams_per_session", 2.5),
    ("TrialConfig", "seed", -1.5),
    ("FleetConfig", "chunk_sessions", 2.5),
    ("WorkloadConfig", "seed", 2.5),
    ("ViewerModel", "tail_threshold_s", math.nan),
    ("ViewerModel", "tail_block_s", math.inf),
    ("Channel", "complexity_sigma", math.nan),
    ("FccTraceConfig", "duration_s", math.nan),
    ("TtpConfig", "horizon", 2.5),
    ("StreamPopulation", "mean_stall_ratio_when_stalled", math.nan),
    ("Cell", "size", math.nan),
]

BY_NAME = {cls.__name__: cls for cls in CLASSES}


def _build(cls, **overrides):
    return cls(**{**REQUIRED.get(cls.__name__, {}), **overrides})


def _cases():
    cases = [
        (cls.__name__, name, value)
        for cls in CLASSES
        for name, kind in cls.KINDS.items()
        for value in ALWAYS_ABSURD + EXCLUDED[kind]
    ]
    return cases + ONCE_ACCEPTED


def test_the_classes_in_scope_declare_their_fields():
    assert {
        "WorkloadConfig", "FlashCrowd", "TrialConfig", "FleetConfig",
        "RetrainConfig", "EdgeConfig", "TtpConfig", "PopulationModel",
        "NetworkPath", "ViewerModel", "Channel", "FccTraceConfig",
        "StreamPopulation", "HistogramSpec", "Cell",
    } <= set(BY_NAME)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_every_numeric_field_is_declared(cls):
    numeric = {
        f.name
        for f in dataclasses.fields(cls)
        if f.init and f.type in ("int", "float")
    }
    assert numeric == set(cls.KINDS)


@pytest.mark.parametrize(
    "owner, name, value",
    _cases(),
    ids=lambda part: part if isinstance(part, str) else repr(part),
)
def test_an_absurd_value_is_refused_by_name(owner, name, value):
    with pytest.raises(ValueError, match=rf"^{owner}\.{name} must be "):
        _build(BY_NAME[owner], **{name: value})


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_whole_fields_store_ints_and_float_fields_keep_their_value(cls):
    default = _build(cls)
    for name, kind in cls.KINDS.items():
        value = getattr(default, name)
        if kind in (fields.whole, fields.whole_positive):
            for given in (value, float(value), np.int64(value)):
                built = _build(cls, **{name: given})
                assert type(getattr(built, name)) is int
                assert built == default
        else:
            given = np.float64(value)
            assert getattr(_build(cls, **{name: given}), name) is given


def test_a_non_dataclass_constructor_names_its_class():
    with pytest.raises(
        ValueError,
        match=r"^HeavyTailLink\.fade_onset_epochs must be a whole number ≥ 0, "
        r"got 2\.5$",
    ):
        HeavyTailLink(5e6, fade_onset_epochs=2.5)


def _trainer(name, **kwargs):
    from repro.core.train import DailyRetrainer, TtpTrainer
    from repro.core.ttp import TransmissionTimePredictor
    from repro.learn.losses import SoftmaxCrossEntropy
    from repro.learn.network import MLP
    from repro.learn.training import Trainer

    if name == "Trainer":
        return Trainer(MLP(2, [], 2), SoftmaxCrossEntropy(), **kwargs)
    cls = {"TtpTrainer": TtpTrainer, "DailyRetrainer": DailyRetrainer}[name]
    return cls(TransmissionTimePredictor(), **kwargs)


@pytest.mark.parametrize(
    "owner, name, value",
    [
        ("TtpTrainer", "epochs", 2.5),
        ("TtpTrainer", "epochs", -1),
        ("TtpTrainer", "epochs", math.nan),
        ("TtpTrainer", "batch_size", 0),
        ("TtpTrainer", "learning_rate", math.nan),
        ("TtpTrainer", "seed", 2.5),
        ("DailyRetrainer", "epochs_per_day", 2.5),
        ("DailyRetrainer", "epochs_per_day", -1),
        ("DailyRetrainer", "epochs_per_day", math.nan),
        ("DailyRetrainer", "window_days", 2.5),
        ("DailyRetrainer", "window_days", math.nan),
        ("DailyRetrainer", "recency_decay", 0.0),
        ("DailyRetrainer", "recency_decay", math.nan),
        ("DailyRetrainer", "seed", -1),
        ("Trainer", "batch_size", 0),
        ("Trainer", "epochs", 2.5),
    ],
    ids=lambda part: part if isinstance(part, str) else repr(part),
)
def test_the_trainers_refuse_a_bad_number_by_name(owner, name, value):
    # Each of these constructed, or died with a bare TypeError, before the
    # trainers checked their numbers through repro.fields.
    with pytest.raises(
        ValueError, match=rf"^{owner}\.{name} must .*, got {value!r}$"
    ):
        _trainer(owner, **{name: value})


def test_the_trainers_store_whole_numbers_as_ints():
    trainer = _trainer("TtpTrainer", epochs=3.0, batch_size=np.int64(16))
    assert (type(trainer.epochs), type(trainer.batch_size)) == (int, int)
    retrainer = _trainer("DailyRetrainer", window_days=3.0)
    assert type(retrainer.window_days) is int
