"""The lazy links' block realization against the per-epoch one, bit for bit.

``MarkovLink`` and ``HeavyTailLink`` realize capacity in blocks: a Python
loop makes each epoch's generator draws in the order one epoch at a time
made them, then one ``np.exp`` and the floors run over the block.
``tests/net/link_reference.py`` keeps the per-epoch realization as it
was.  For any parameters, seed and order of reads — chunk by chunk, far
jumps, backwards — every capacity the live link returns or holds equals
the reference's as a ``uint64`` bit pattern, and once the reference has
realized as many epochs the two generators and the fade state are in the
same place.  No tolerance anywhere in this file.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.link import HeavyTailLink, MarkovLink

from tests.net import link_reference as reference


def bits(values):
    return np.asarray(values, dtype=np.float64).view(np.uint64).tolist()


per_chunk = st.lists(
    st.floats(min_value=0.0, max_value=4.5, allow_nan=False), max_size=200
).map(lambda steps: list(np.cumsum(steps)))
far_jumps = st.lists(
    st.floats(min_value=0.0, max_value=3000.0, allow_nan=False), max_size=40
)
backwards = far_jumps.map(lambda times: sorted(times, reverse=True))
reads = st.one_of(per_chunk, far_jumps, backwards)

heavy_tail = st.fixed_dictionaries(
    {
        "base_bps": st.sampled_from([2e4, 8e5, 5e6, 4e7]),
        "sigma": st.sampled_from([0.0, 0.05, 0.35, 1.5]),
        "reversion": st.sampled_from([0.01, 0.12, 0.5, 1.0]),
        "fade_rate": st.one_of(
            st.sampled_from([0.0, 0.004, 1.0]), st.floats(0.0, 1.0)
        ),
        "fade_depth_log": st.sampled_from([0.0, 2.3, 9.0]),
        # Short fades (one deep epoch) and long ones.
        "fade_duration_epochs": st.sampled_from([1.0, 1.5, 8.0, 60.0]),
        "fade_floor_median_bps": st.sampled_from([3e2, 3e5, 1e8]),
        "fade_floor_sigma": st.sampled_from([0.0, 0.8, 2.0]),
        "fade_onset_epochs": st.integers(0, 5),
        "epoch": st.sampled_from([0.3, 1.0, 2.002]),
        "seed": st.integers(0, 2**32 - 1),
    }
)

markov = st.fixed_dictionaries(
    {
        "states_bps": st.lists(
            st.sampled_from([5e2, 3e5, 1e6, 6e6, 2.5e7]), min_size=1, max_size=4
        ),
        "switch_probability": st.one_of(
            st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)
        ),
        "jitter_sigma": st.sampled_from([0, 0.0, 0.02, 0.4, 3.0]),
        "epoch": st.sampled_from([0.3, 1.0, 2.002]),
        "seed": st.integers(0, 2**32 - 1),
    }
)


def assert_same_realization(live, frozen, times):
    for t in times:
        got = live.epoch_at(t)
        want = frozen.epoch_at(t)
        assert bits(got) == bits(want)
        assert live.capacity_at(t) == got[0]
    # The live link reads ahead; bring the reference level with it.
    frozen.realize_through(len(live._realized) - 1)
    assert len(frozen._realized) == len(live._realized)
    assert bits(live._realized) == bits(frozen._realized)
    assert live.rng.bit_generator.state == frozen.rng.bit_generator.state


@given(heavy_tail, reads)
@settings(max_examples=300, deadline=None)
def test_heavy_tail_blocks_match_the_per_epoch_realization(params, times):
    live = HeavyTailLink(**params)
    frozen = reference.HeavyTailLink(**params)
    assert_same_realization(live, frozen, times)
    assert live._log_dev == frozen._log_dev
    assert bits(live._fade_schedule) == bits(frozen._fade_schedule)
    assert live._fade_floor_bps == frozen._fade_floor_bps


@given(markov, reads)
@settings(max_examples=200, deadline=None)
def test_markov_blocks_match_the_per_epoch_realization(params, times):
    live = MarkovLink(**params)
    frozen = reference.MarkovLink(**params)
    assert_same_realization(live, frozen, times)
    assert live._state == frozen._state


@given(st.integers(0, 2**32 - 1), st.integers(0, 5))
@settings(max_examples=50, deadline=None)
def test_back_to_back_fades_match(seed, onset):
    """``fade_rate`` 1.0: a fade starts on the first epoch after the last
    one ends, so every draw of ``random()`` decides a fade."""
    params = dict(
        base_bps=3e6, fade_rate=1.0, fade_onset_epochs=onset, seed=seed
    )
    live = HeavyTailLink(**params)
    frozen = reference.HeavyTailLink(**params)
    assert_same_realization(live, frozen, [float(i) for i in range(0, 700, 3)])


def test_reading_every_epoch_one_at_a_time_and_all_at_once_agree():
    one = HeavyTailLink(base_bps=5e6, fade_rate=0.05, seed=7)
    whole = HeavyTailLink(base_bps=5e6, fade_rate=0.05, seed=7)
    first = [one.capacity_at(float(i)) for i in range(2000)]
    whole.realize_through(1999)
    assert bits(first) == bits(whole._realized[:2000])
