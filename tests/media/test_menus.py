"""Block menus against the per-chunk media pipeline, bit for bit.

``MenuBlockSource.menus()`` feeds every session; ``VbrEncoder.stream`` over
a ``VideoSource`` is the per-chunk reference it replaced there.  The two
must agree in every field of every menu whatever the block sizing, a session
must not be able to tell how far ahead its menus were generated, and a menu
that has not built its ``EncodedChunk`` objects yet must behave like one that
has.  No tolerance anywhere in this file.
"""

import copy
import pickle
from itertools import islice

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.experiment.harness as harness
from repro.abr.bba import BBA
from repro.abr.mpc import MpcHm
from repro.experiment.harness import TrialConfig, run_session
from repro.media.chunk import ChunkMenu
from repro.media.encoder import VbrEncoder
from repro.media.ladder import PUFFER_LADDER
from repro.media.menus import MAX_BLOCK_CHUNKS, MenuBlockSource
from repro.media.source import DEFAULT_CHANNELS, VideoSource

from tests.streaming.test_fastpath_equivalence import (
    TAIL_VIEWER,
    reference_loop,
    spec,
)

FIRST_BLOCKS = (0, 1, 31, 33, MAX_BLOCK_CHUNKS + 500)


def reference_stream(channel, seed):
    rng = np.random.default_rng(seed)
    return VbrEncoder(rng=rng).stream(VideoSource(channel, rng=rng))


def block_stream(channel, seed, first_block_chunks=0):
    return MenuBlockSource(
        channel,
        np.random.default_rng(seed),
        first_block_chunks=first_block_chunks,
    ).menus()


def bits(values):
    return [float(v).hex() for v in values]


def assert_same_menu(got, want):
    assert type(got.sizes) is type(want.sizes) is tuple
    assert type(got.ssims_db) is type(want.ssims_db) is tuple
    assert bits(got.sizes) == bits(want.sizes)
    assert bits(got.ssims_db) == bits(want.ssims_db)
    assert got.chunk_index == want.chunk_index
    assert got.duration == want.duration
    assert len(got) == len(want) == len(PUFFER_LADDER)
    # Iteration, indexing and the versions tuple build the same objects.
    assert list(got) == list(want)
    assert got.versions == want.versions
    assert [got[i] for i in range(-len(got), len(got))] == [
        want[i] for i in range(-len(want), len(want))
    ]
    assert bits(v.bitrate for v in got) == bits(v.bitrate for v in want)
    for profile in PUFFER_LADDER:
        assert got.version_for_profile(profile) == want.version_for_profile(
            profile
        )


class TestMenusEqualTheEncoderStream:
    @pytest.mark.parametrize("first_block_chunks", FIRST_BLOCKS)
    @pytest.mark.parametrize("channel", DEFAULT_CHANNELS, ids=lambda c: c.name)
    def test_every_channel_and_first_block_size(self, channel, first_block_chunks):
        # 100 menus cross the 31/32/33 block seams and the default 32-chunk
        # blocks after them; the oversized hint is capped, not honoured.
        for seed in (0, 7, (20200225, 0x7E1E, 3, 1)):
            got = block_stream(channel, seed, first_block_chunks)
            want = reference_stream(channel, seed)
            for a, b in islice(zip(got, want), 100):
                assert_same_menu(a, b)

    @given(
        seed=st.integers(0, 2**32 - 1),
        channel=st.sampled_from(DEFAULT_CHANNELS),
        first_block_chunks=st.integers(0, 80),
        n=st.integers(1, 120),
    )
    @settings(max_examples=40, deadline=None)
    def test_any_seed_and_sizing(self, seed, channel, first_block_chunks, n):
        got = block_stream(channel, seed, first_block_chunks)
        want = reference_stream(channel, seed)
        for a, b in islice(zip(got, want), n):
            assert bits(a.sizes) == bits(b.sizes)
            assert bits(a.ssims_db) == bits(b.ssims_db)
            assert (a.chunk_index, a.duration) == (b.chunk_index, b.duration)

    def test_oversized_first_block_is_capped(self):
        source = MenuBlockSource(
            DEFAULT_CHANNELS[0],
            np.random.default_rng(1),
            first_block_chunks=MAX_BLOCK_CHUNKS + 500,
        )
        next(source.menus())
        assert len(source.sizes_lists) == MAX_BLOCK_CHUNKS

    def test_menus_is_lazy_one_row_per_menu(self):
        # The window pulls menus one at a time; the iterator must not run
        # ahead of what was asked for (perf/ counts a span per row).
        source = MenuBlockSource(DEFAULT_CHANNELS[0], np.random.default_rng(1))
        stream = source.menus()
        assert source.sizes_lists == []
        assert [next(stream).chunk_index for _ in range(3)] == [0, 1, 2]
        assert source.next_row()[0] == 3


class TestLazyVersions:
    def fresh(self):
        return next(block_stream(DEFAULT_CHANNELS[2], 11))

    def test_rows_do_not_build_versions(self):
        menu = self.fresh()
        assert menu._versions is None
        menu.sizes, menu.ssims_db, menu.duration, menu.chunk_index, len(menu)
        assert menu._versions is None
        menu[0]
        assert menu._versions is not None

    @pytest.mark.parametrize("materialize_first", [False, True])
    @pytest.mark.parametrize(
        "clone",
        [
            copy.deepcopy,
            copy.copy,
            lambda m: pickle.loads(pickle.dumps(m)),
            lambda m: pickle.loads(pickle.dumps(m, protocol=2)),
        ],
        ids=["deepcopy", "copy", "pickle", "pickle2"],
    )
    def test_survives_copy_and_pickle(self, clone, materialize_first):
        menu = self.fresh()
        if materialize_first:
            menu.versions
        twin = clone(menu)
        assert (twin._versions is None) == (not materialize_first)
        assert_same_menu(twin, next(reference_stream(DEFAULT_CHANNELS[2], 11)))
        # The original is still usable, and still equal.
        assert_same_menu(menu, next(reference_stream(DEFAULT_CHANNELS[2], 11)))

    def test_from_rows_keeps_the_encoded_chunk_checks(self):
        menu = ChunkMenu.from_rows(
            0, 2.002, (0.0,), (10.0,), PUFFER_LADDER.profiles[:1]
        )
        with pytest.raises(ValueError, match="size"):
            menu[0]


class _EncoderMenus:
    """``MenuBlockSource``'s constructor signature over the per-chunk
    reference pipeline."""

    def __init__(self, channel, rng, first_block_chunks=0):
        self._stream = VbrEncoder(rng=rng).stream(VideoSource(channel, rng=rng))

    def menus(self):
        return self._stream


class TestSessionsCannotSeeBlockSizing:
    SPECS = [spec("mpc_hm", MpcHm), spec("bba", BBA)]
    # The tail viewer extends nearly every stream, so streams outrun
    # whatever first block their intended watch time sized.
    CONFIG = TrialConfig(
        n_sessions=50,
        seed=13,
        viewer=TAIL_VIEWER,
        extra_stream_prob=0.5,
        collect_telemetry=True,
    )
    SESSIONS = range(8)

    def shards(self):
        return [
            (shard.session, shard.consort, shard.telemetry)
            for shard in (
                run_session(self.SPECS, self.CONFIG, sid) for sid in self.SESSIONS
            )
        ]

    @pytest.mark.parametrize("first_block_chunks", FIRST_BLOCKS)
    def test_shard_identical_whatever_the_first_block(
        self, monkeypatch, first_block_chunks
    ):
        stock = self.shards()
        assert sum(len(session.streams) for session, _, _ in stock) > len(
            self.SESSIONS
        )

        forced = first_block_chunks
        monkeypatch.setattr(
            harness,
            "MenuBlockSource",
            lambda channel, rng, first_block_chunks: MenuBlockSource(
                channel, rng, first_block_chunks=forced
            ),
        )
        assert self.shards() == stock

    def test_shard_identical_to_the_per_chunk_pipeline(self, monkeypatch):
        # stream_machine is the one loop that can take the per-chunk
        # pipeline's menus.
        with reference_loop():
            stock = self.shards()
            monkeypatch.setattr(harness, "MenuBlockSource", _EncoderMenus)
            assert self.shards() == stock
