"""BOLA's float rule against the frozen numpy rule, and its NaN check.

``Bola.pick`` scores one rung at a time in Python floats; the array rule
(``bola_reference.py``) scores the row as a ``float64`` array.  Both
evaluate ``(v * ((ssim - ssims[0]) + gamma_p) - q) / size`` one
correctly rounded operation at a time in the same order, so every score is
the same double and the chosen rung is the same, ties included.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from repro.abr.bola import Bola
from repro.media.menus import MenuBlockSource
from repro.media.source import DEFAULT_CHANNELS
from tests.abr.bola_reference import bola_pick

sizes_strategy = st.floats(min_value=1.0, max_value=1e8, allow_nan=False)
ssims_strategy = st.floats(min_value=-5.0, max_value=40.0, allow_nan=False)
buffers = st.floats(min_value=0.0, max_value=30.0, allow_nan=False)
durations = st.floats(min_value=0.5, max_value=4.0, allow_nan=False)


def both(bola, buffer_s, sizes, ssims, duration):
    reference = bola_pick(
        bola.max_buffer_s,
        bola.target_buffer_fraction,
        buffer_s,
        np.asarray(sizes, dtype=np.float64),
        np.asarray(ssims, dtype=np.float64),
        duration,
    )
    return bola.pick(buffer_s, sizes, ssims, duration), reference


@st.composite
def rows(draw, min_rungs=1, max_rungs=12):
    n = draw(st.integers(min_value=min_rungs, max_value=max_rungs))
    sizes = draw(st.lists(sizes_strategy, min_size=n, max_size=n))
    ssims = sorted(draw(st.lists(ssims_strategy, min_size=n, max_size=n)))
    return sizes, ssims


class TestAgainstTheArrayRule:
    @given(rows(), buffers, durations)
    def test_random_rows(self, row, buffer_s, duration):
        sizes, ssims = row
        chosen, reference = both(Bola(), buffer_s, sizes, ssims, duration)
        assert chosen == reference

    @given(rows(min_rungs=1, max_rungs=1), buffers, durations)
    def test_one_rung_rows(self, row, buffer_s, duration):
        sizes, ssims = row
        assert both(Bola(), buffer_s, sizes, ssims, duration) == (0, 0)

    @given(
        st.integers(min_value=2, max_value=10),
        sizes_strategy,
        ssims_strategy,
        buffers,
    )
    def test_ties_go_to_the_lowest_rung(self, n, size, ssim, buffer_s):
        # Equal sizes and SSIMs: every score is the same double.
        sizes, ssims = [size] * n, [ssim] * n
        chosen, reference = both(Bola(), buffer_s, sizes, ssims, 2.002)
        assert chosen == reference
        assert chosen in (0, n - 1)  # lowest rung, or all non-positive

    @given(rows(min_rungs=2), durations)
    def test_all_non_positive_scores_take_the_top_rung(self, row, duration):
        # A buffer past BOLA's operating point: every score is negative.
        sizes, ssims = row
        buffer_s = 15.0 * (1.0 + 1e-9)
        bola = Bola(max_buffer_s=15.0)
        q_max = 15.0 / duration
        gamma_p = bola.target_buffer_fraction * q_max
        span = max(ssims[-1] - ssims[0], 1e-9)
        v = (q_max - 1.0) / (span + gamma_p)
        assume(v * (span + gamma_p) < buffer_s / duration)
        chosen, reference = both(bola, buffer_s, sizes, ssims, duration)
        assert chosen == reference == len(sizes) - 1

    def test_scores_of_exactly_zero_are_non_positive(self):
        # Equal SSIMs and a buffer of exactly q_chunks == v * gamma_p: every
        # score is 0.0, none is positive, so both rules take the top rung.
        bola = Bola(max_buffer_s=15.0, target_buffer_fraction=1.0)
        q_max = 15.0
        v = (q_max - 1.0) / (1e-9 + q_max)
        buffer_s = v * q_max
        chosen, reference = both(bola, buffer_s, [1e6, 2e6], [10.0, 10.0], 1.0)
        assert chosen == reference == 1

    def test_every_menu_row_of_a_stream(self):
        source = MenuBlockSource(DEFAULT_CHANNELS[2], np.random.default_rng(7))
        bola = Bola()
        for k in range(300):
            _, row = source.next_row()
            sizes, ssims = source.row_arrays(row)
            buffer_s = (k % 31) * 0.5
            assert bola.pick(
                buffer_s,
                source.sizes_lists[row],
                source.ssims_lists[row],
                source.chunk_duration,
            ) == bola_pick(
                bola.max_buffer_s,
                bola.target_buffer_fraction,
                buffer_s,
                sizes,
                ssims,
                source.chunk_duration,
            )


class TestNanScoresRaise:
    """A NaN in the row scores NaN; the array rule streamed the first NaN's
    rung, the float rule names it."""

    ROW_SIZES = [2e5, 4e5, 8e5, 1.6e6, 3.2e6]
    ROW_SSIMS = [8.0, 10.0, 12.0, 14.0, 16.0]

    def reference(self, sizes, ssims):
        bola = Bola()
        return bola_pick(
            bola.max_buffer_s,
            bola.target_buffer_fraction,
            6.0,
            np.asarray(sizes),
            np.asarray(ssims),
            2.002,
        )

    def test_nan_ssim_at_rung_0(self):
        ssims = [math.nan] + self.ROW_SSIMS[1:]
        assert self.reference(self.ROW_SIZES, ssims) == 0
        with pytest.raises(ValueError, match="NaN at rung 0"):
            Bola().pick(6.0, self.ROW_SIZES, ssims, 2.002)

    def test_nan_size_at_rung_3(self):
        sizes = self.ROW_SIZES[:3] + [math.nan] + self.ROW_SIZES[4:]
        assert self.reference(sizes, self.ROW_SSIMS) == 3
        with pytest.raises(ValueError, match="NaN at rung 3"):
            Bola().pick(6.0, sizes, self.ROW_SSIMS, 2.002)
