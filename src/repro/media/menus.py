"""Block-generated chunk menus, bit-identical to the per-chunk media pipeline.

The per-chunk reference builds each menu through ``VideoSource`` →
``SceneComplexityProcess.step`` → ``VbrEncoder.encode_chunk``, consuming the
per-stream media generator in the fixed order

    ``random()`` · ``standard_normal`` (scene step) ·
    ``standard_normal`` (size noise) · ``standard_normal`` × rungs (quality)

per chunk.  ``MenuBlockSource`` draws the same sequence — one ``random()``
and one ``standard_normal(2 + rungs)`` block per chunk, which numpy's
Generator produces bit-identically to the scalar calls — then evaluates the
encoder arithmetic for a whole block of chunks with stacked array math in
the scalar evaluation order.  Over-generation is invisible whatever scheme
reads the menus: the media generator feeds nothing but its own lazily
consumed sequence, and the simulator's lookahead window already consumes
menus ahead of the playhead.

Every session of :func:`repro.experiment.harness.session_machine` streams
from a ``MenuBlockSource``: :meth:`MenuBlockSource.menus` under
``stream_machine``, the block rows directly under
:func:`repro.streaming.fastpath.fast_stream`.  ``VbrEncoder`` /
``VideoSource`` remain the per-chunk reference the differential suite
(``tests/media/test_menus.py``) compares against, and the pipeline for
bounded clips.
"""

from __future__ import annotations

import math
from typing import Iterator, List, Tuple

import numpy as np

from repro.media.chunk import ChunkMenu
from repro.media.encoder import CHUNK_DURATION, _MAX_SSIM_DB, _MIN_SSIM_DB
from repro.media.ladder import PUFFER_LADDER, EncodingLadder
from repro.media.source import Channel

DEFAULT_BLOCK_CHUNKS = 32
"""Chunks generated per block (a latency/throughput knob, not semantics)."""

MAX_BLOCK_CHUNKS = 1024
"""Cap on a single block so a pathological hint cannot balloon memory."""


class MenuBlockSource:
    """Per-stream menu stream: (sizes, ssims) rows per chunk, or
    :class:`ChunkMenu` objects over the same rows (:meth:`menus`).

    Replicates ``VideoSource(channel, rng=media_rng)`` +
    ``VbrEncoder(rng=media_rng)`` with the harness defaults; every float it
    produces equals the scalar pipeline's bit for bit.
    """

    def __init__(
        self,
        channel: Channel,
        rng: np.random.Generator,
        ladder: EncodingLadder = PUFFER_LADDER,
        size_noise_sigma: float = 0.12,
        quality_complexity_slope: float = 1.6,
        quality_noise_sigma: float = 0.25,
        chunk_duration: float = CHUNK_DURATION,
        block_chunks: int = DEFAULT_BLOCK_CHUNKS,
        first_block_chunks: int = 0,
    ) -> None:
        """``first_block_chunks`` (when positive) sizes only the first
        block — callers that know the stream's expected chunk count pass it
        so short streams don't over-generate and long streams don't pay the
        per-block fixed cost repeatedly.  Block sizing never affects the
        values produced, only how far ahead they are materialized."""
        if block_chunks < 1:
            raise ValueError("block_chunks must be >= 1")
        self._rng = rng
        self._channel = channel
        self._profiles = ladder.profiles
        self._n_rungs = len(ladder)
        self.chunk_duration = chunk_duration
        self._block_chunks = block_chunks
        self._next_block_chunks = (
            min(max(first_block_chunks, 1), MAX_BLOCK_CHUNKS)
            if first_block_chunks > 0
            else block_chunks
        )
        # Scalar order: VideoSource construction draws the initial scene
        # log-complexity before the encoder touches the generator.
        self._log_c = float(rng.normal(0.0, channel.complexity_sigma))
        # Identical expression to SceneComplexityProcess.step's local.
        self._innovation_sigma = channel.complexity_sigma * np.sqrt(
            1.0 - (1.0 - channel.mean_reversion) ** 2
        )
        self._size_noise_mean = -0.5 * size_noise_sigma**2
        self._size_noise_sigma = size_noise_sigma
        self._slope = quality_complexity_slope
        self._quality_sigma = quality_noise_sigma
        # target_bitrate * chunk_duration, the scalar expression's first two
        # factors, precomputed per rung.
        self._tb_cd = np.array(
            [p.target_bitrate * chunk_duration for p in ladder],
            dtype=np.float64,
        )
        self._base_ssim = np.array(
            [p.base_ssim_db for p in ladder], dtype=np.float64
        )
        self._sizes = np.empty((0, self._n_rungs), dtype=np.float64)
        self._ssims = np.empty((0, self._n_rungs), dtype=np.float64)
        self.sizes_lists: List[List[float]] = []
        self.ssims_lists: List[List[float]] = []
        self.rates_lists: List[List[float]] = []
        self._pos = 0
        self._next_index = 0

    def _generate_block(self) -> None:
        k = self._next_block_chunks
        self._next_block_chunks = self._block_chunks
        rng = self._rng
        random = rng.random
        standard_normal = rng.standard_normal
        ch = self._channel
        z = np.empty((k, 2 + self._n_rungs), dtype=np.float64)
        u = [0.0] * k
        for i in range(k):
            # Per-chunk draw order matches the scalar pipeline exactly; the
            # standard_normal row equals 2 + rungs scalar normal draws, and
            # is drawn straight into its row of the block.
            u[i] = random()
            standard_normal(out=z[i])
        # Scene-complexity recurrence (sequential by construction), on the
        # Python floats of the draws: each step is the scalar expression
        # on the same doubles, so the same double.
        log_c = self._log_c
        cut_rate = ch.scene_cut_rate
        sigma = ch.complexity_sigma
        one_minus_mr = 1.0 - ch.mean_reversion
        innovation_sigma = float(self._innovation_sigma)
        scene = z[:, 0].tolist()
        log_cs = [0.0] * k
        for i in range(k):
            if u[i] < cut_rate:
                log_c = sigma * scene[i]
            else:
                log_c = one_minus_mr * log_c + innovation_sigma * scene[i]
            log_cs[i] = log_c
        self._log_c = log_c
        complexity = np.exp(np.array(log_cs, dtype=np.float64))
        # Size noise is lognormal; numpy's lognormal(m, s) equals
        # math.exp(m + s * standard_normal()) bit for bit (np.exp does NOT).
        noise_mean = self._size_noise_mean
        noise_sigma = self._size_noise_sigma
        size_noise = np.array(
            [math.exp(noise_mean + noise_sigma * zz) for zz in z[:, 1].tolist()],
            dtype=np.float64,
        )
        # ((target_bitrate * duration) * complexity) * size_noise, the
        # scalar left-to-right evaluation order.
        size_bits = (
            self._tb_cd[None, :] * complexity[:, None]
        ) * size_noise[:, None]
        sizes = np.maximum(size_bits / 8.0, 1.0)
        # (base - slope * log2(complexity)) + quality noise, then clip and
        # the running-maximum ladder-monotonicity fix.
        penalty = self._slope * np.log2(complexity)
        ssims = (self._base_ssim[None, :] - penalty[:, None]) + (
            self._quality_sigma * z[:, 2:]
        )
        ssims = np.clip(ssims, _MIN_SSIM_DB, _MAX_SSIM_DB)
        ssims = np.maximum.accumulate(ssims, axis=1)
        self._sizes = sizes
        self._ssims = ssims
        # Row lists + per-chunk rate rows, hoisted out of the per-chunk hot
        # path.  ``tolist()`` round-trips float64 exactly; the rate
        # expression mirrors ``EncodedChunk.bitrate`` — ``(size_bytes *
        # 8.0) / duration`` — elementwise (np.float64 scalar arithmetic is
        # bit-identical to Python float arithmetic).
        rates = (sizes * 8.0) / self.chunk_duration
        self.sizes_lists = sizes.tolist()
        self.ssims_lists = ssims.tolist()
        self.rates_lists = rates.tolist()
        self._pos = 0

    def next_row(self) -> Tuple[int, int]:
        """Advance to the next chunk; returns ``(chunk_index, row)`` where
        ``row`` indexes this block's ``*_lists`` and ``row_arrays``."""
        row = self._pos
        if row >= self._sizes.shape[0]:
            self._generate_block()
            row = 0
        index = self._next_index
        self._pos = row + 1
        self._next_index += 1
        return index, row

    def row_arrays(self, row: int) -> Tuple[np.ndarray, np.ndarray]:
        """The ``(sizes_bytes, ssims_db)`` ndarray rows for ``row``."""
        return self._sizes[row], self._ssims[row]

    def next_menu(self) -> Tuple[int, np.ndarray, np.ndarray]:
        """The next chunk's ``(chunk_index, sizes_bytes, ssims_db)`` rows."""
        index, row = self.next_row()
        return index, self._sizes[row], self._ssims[row]

    def menus(self) -> Iterator[ChunkMenu]:
        """The endless menu stream ``VbrEncoder(rng=rng).stream(VideoSource(
        channel, rng=rng))`` yields, field for field, from the block rows."""
        profiles = self._profiles
        duration = self.chunk_duration
        while True:
            index, row = self.next_row()
            yield ChunkMenu.from_rows(
                index,
                duration,
                tuple(self.sizes_lists[row]),
                tuple(self.ssims_lists[row]),
                profiles,
            )
