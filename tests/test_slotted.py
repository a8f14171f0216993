"""The per-chunk records: frozen, slotted, built in one step.

``TcpInfo`` and ``ChunkRecord`` declare ``__slots__`` and are built on the
chunk path by :func:`repro.slotted.builder` (``make_tcp_info``,
``make_chunk_record``).  A built record is the record ``__init__`` makes —
equal, same hash, same repr — and stays a frozen dataclass: it refuses
assignment, ``dataclasses.replace`` works, it has no ``__dict__``, and it
crosses a pickle and a two-worker ``fork_map`` intact.
"""

import copy
import dataclasses
import math
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.abr.base import ChunkRecord, make_chunk_record
from repro.experiment.parallel import fork_map
from repro.net.tcp import TcpInfo, make_tcp_info

numbers = st.floats(allow_nan=False) | st.integers(-(2**40), 2**40)
tcp_fields = st.tuples(*[numbers] * 5)


def records(info_fields, chunk_index=3, rung=7):
    """The same record built both ways: (``__init__``, builder)."""
    by_init = ChunkRecord(
        chunk_index, rung, 1.5e5, 14.25, 0.75, TcpInfo(*info_fields), 12.0
    )
    by_builder = make_chunk_record(
        chunk_index, rung, 1.5e5, 14.25, 0.75, make_tcp_info(*info_fields), 12.0
    )
    return by_init, by_builder


@given(tcp_fields)
@settings(max_examples=200, deadline=None)
def test_builder_makes_the_record_init_makes(info_fields):
    for by_init, by_builder in (infos(info_fields), records(info_fields)):
        assert type(by_builder) is type(by_init)
        assert by_builder == by_init
        assert hash(by_builder) == hash(by_init)
        assert repr(by_builder) == repr(by_init)
        assert dataclasses.astuple(by_builder) == dataclasses.astuple(by_init)


def test_builder_takes_fields_by_name_too():
    info = make_tcp_info(
        cwnd=10.0, in_flight=2.0, min_rtt=0.04, rtt=0.05, delivery_rate=3e6
    )
    assert info == TcpInfo(10.0, 2.0, 0.04, 0.05, 3e6)
    with pytest.raises(TypeError):
        make_tcp_info(10.0, 2.0, 0.04, 0.05)


def infos(info_fields):
    """The same ``TcpInfo`` built both ways: (``__init__``, builder)."""
    return TcpInfo(*info_fields), make_tcp_info(*info_fields)


@pytest.mark.parametrize("build", [records, infos])
def test_records_are_frozen_and_slotted(build):
    for record in build((20.0, 5.0, 0.04, 0.05, 4e6)):
        assert not hasattr(record, "__dict__")
        name = dataclasses.fields(record)[0].name
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, name, 1)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(record, name)
        with pytest.raises((AttributeError, TypeError)):
            record.extra = 1
        changed = dataclasses.replace(record, **{name: 99})
        assert getattr(changed, name) == 99
        assert type(changed) is type(record)


@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
def test_records_pickle(protocol):
    by_init, by_builder = records((20.0, 5.0, 0.04, -0.0, math.inf))
    for record in (by_init, by_builder, by_builder.info_at_send):
        back = pickle.loads(pickle.dumps(record, protocol=protocol))
        assert back == record and repr(back) == repr(record)
        assert type(back) is type(record)
    assert copy.copy(by_builder) == by_builder
    assert copy.deepcopy(by_builder) == by_builder


def _rebuild(offset, record):
    """A worker's reply: the record it was sent, and one it built."""
    built = make_chunk_record(
        record.chunk_index + offset,
        record.rung,
        record.size_bytes,
        record.ssim_db,
        record.transmission_time,
        make_tcp_info(*dataclasses.astuple(record.info_at_send)),
        record.send_time,
    )
    return record, built


@pytest.mark.parallel_smoke
def test_records_cross_a_two_worker_fork_map():
    sent = [
        records((float(i), 1.0, 0.04, 0.05, 1e6 * i), chunk_index=i)[1]
        for i in range(8)
    ]
    replies = list(fork_map(_rebuild, 100, sent, workers=2))
    for i, (echoed, built) in enumerate(replies):
        assert echoed == sent[i] and repr(echoed) == repr(sent[i])
        assert built == dataclasses.replace(sent[i], chunk_index=i + 100)
        assert not hasattr(built, "__dict__")
