"""Epoch-boundary regression tests for capacity lookups.

The original scalar lookup used ``int(t / epoch)``, which is wrong exactly
at epoch boundaries when ``epoch`` is not binary-representable: for
``t = k * epoch`` the float division can land just below ``k`` (~6% of the
time for ``epoch = 0.3``), returning the *previous* epoch's capacity at the
instant a new epoch begins.  These tests pin the corrected half-open
interval rule — epoch ``i`` owns ``[i * epoch, (i + 1) * epoch)``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.link import (
    ConstantLink,
    HeavyTailLink,
    MarkovLink,
    TraceLink,
    epoch_index,
)

# 0.3 and 0.1 are the classic non-representable widths; 6.0 is the paper's
# Fig. 2 epoch; 0.25 is exactly representable (control).
EPOCHS = [0.3, 0.1, 6.0, 0.25]


class TestEpochIndex:
    @pytest.mark.parametrize("epoch", EPOCHS)
    def test_exact_boundaries_start_their_own_epoch(self, epoch):
        for k in range(2000):
            t = k * epoch
            assert epoch_index(t, epoch) == k, f"t={t!r} epoch={epoch!r}"

    @pytest.mark.parametrize("epoch", EPOCHS)
    def test_half_open_interval_rule(self, epoch):
        for k in range(500):
            t = k * epoch
            i = epoch_index(t, epoch)
            assert i * epoch <= t
            assert t < (i + 1) * epoch

    def test_midpoints(self):
        assert epoch_index(0.45, 0.3) == 1
        assert epoch_index(0.29999999, 0.3) == 0

    def test_just_below_boundary_stays_in_previous_epoch(self):
        t = np.nextafter(3 * 0.3, 0.0)
        assert epoch_index(t, 0.3) == 2

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            epoch_index(-0.1, 0.3)

    @given(
        st.floats(0.0, 1e4),
        st.sampled_from(EPOCHS),
    )
    @settings(max_examples=200, deadline=None)
    def test_half_open_interval_rule_everywhere(self, t, epoch):
        i = epoch_index(t, epoch)
        assert i * epoch <= t < (i + 1) * epoch


def _links():
    return [
        ConstantLink(5e6),
        TraceLink([1e6, 2e6, 3e6], epoch=0.3, loop=True),
        TraceLink([1e6, 2e6, 3e6], epoch=0.3, loop=False),
        MarkovLink([1e6, 4e6], epoch=0.3, seed=7),
        HeavyTailLink(5e6, epoch=0.3, seed=7),
    ]


class TestBoundaryLookups:
    def test_trace_boundary_returns_new_epoch(self):
        link = TraceLink([1e6, 2e6, 3e6], epoch=0.3, loop=False)
        # t = 3 * 0.3 = 0.8999999999999999 < 0.9 in float; it still belongs
        # to epoch 3 (held last rate), not epoch 2.
        assert link.capacity_at(3 * 0.3) == 3e6
        assert link.capacity_at(2 * 0.3) == 3e6
        assert link.capacity_at(1 * 0.3) == 2e6

    def test_trace_loop_boundary_wraps_exactly(self):
        link = TraceLink([1e6, 2e6], epoch=0.3, loop=True)
        for k in range(100):
            assert link.capacity_at(k * 0.3) == link.rates_bps[k % 2]

    def test_trace_no_loop_holds_last_at_and_past_end(self):
        link = TraceLink([1e6, 2e6], epoch=0.3, loop=False)
        end = 2 * 0.3
        assert link.capacity_at(end) == 2e6
        assert link.capacity_at(end + 123.0) == 2e6

    def test_markov_boundary_matches_sequential_realization(self):
        # Random access at exact boundaries must agree with a second link
        # realized strictly sequentially mid-epoch.
        link = MarkovLink([1e6, 2e6, 8e6], epoch=0.3, seed=3)
        ref = MarkovLink([1e6, 2e6, 8e6], epoch=0.3, seed=3)
        mid = [ref.capacity_at(k * 0.3 + 0.15) for k in range(200)]
        at_boundary = [link.capacity_at(k * 0.3) for k in range(200)]
        assert at_boundary == mid

    def test_heavytail_boundary_matches_sequential_realization(self):
        link = HeavyTailLink(5e6, epoch=0.3, seed=11)
        ref = HeavyTailLink(5e6, epoch=0.3, seed=11)
        mid = [ref.capacity_at(k * 0.3 + 0.15) for k in range(200)]
        at_boundary = [link.capacity_at(k * 0.3) for k in range(200)]
        assert at_boundary == mid

    @pytest.mark.parametrize("link", _links(), ids=lambda l: type(l).__name__)
    def test_capacity_at_follows_the_half_open_rule(self, link):
        # At every boundary and one ulp below it, the lookup returns the
        # capacity of the epoch that owns the instant (read at its midpoint).
        boundaries = [k * 0.3 for k in range(1, 300)]
        below = [float(np.nextafter(b, 0.0)) for b in boundaries]
        for t in boundaries + below:
            owner = epoch_index(t, 0.3)
            assert link.capacity_at(t) == link.capacity_at(owner * 0.3 + 0.15)

    @pytest.mark.parametrize("link", _links(), ids=lambda l: type(l).__name__)
    def test_capacity_at_negative_time_rejected(self, link):
        with pytest.raises(ValueError):
            link.capacity_at(-0.5)
