"""``LinkModel.epoch_at`` is ``(capacity_at(t), next_change_after(t))``.

``epoch_at`` is the one capacity read of the TCP round and of the
co-simulation's cursors; epoch links answer it with one epoch lookup
instead of two.  For every shipped link model, and for a custom subclass
that defines only the two older methods, it must return what those two
return — at random times, in any order, and exactly at epoch boundaries,
where ``t / epoch`` rounds below the epoch's index for ``epoch = 0.3``.
"""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.net import link as link_module
from repro.net.link import (
    ConstantLink,
    HeavyTailLink,
    LinkModel,
    MarkovLink,
    TraceLink,
)

FACTORIES = {
    "ConstantLink": lambda epoch: ConstantLink(3e6),
    "TraceLink": lambda epoch: TraceLink([1e6, 4e6, 2e6], epoch=epoch),
    "TraceLink-once": lambda epoch: TraceLink(
        [1e6, 4e6, 2e6], epoch=epoch, loop=False
    ),
    "MarkovLink": lambda epoch: MarkovLink(
        [5e5, 2e6, 8e6], switch_probability=0.3, epoch=epoch, seed=11
    ),
    "HeavyTailLink": lambda epoch: HeavyTailLink(
        3e6, fade_rate=0.2, epoch=epoch, seed=(4, 2)
    ),
}


def shipped_link_models():
    """Every public concrete ``LinkModel`` subclass in ``repro.net.link``."""
    found, stack = set(), [LinkModel]
    while stack:
        for sub in stack.pop().__subclasses__():
            stack.append(sub)
            public = not sub.__name__.startswith("_")
            if public and sub.__module__ == link_module.__name__:
                found.add(sub.__name__)
    return found


def test_every_shipped_link_model_is_covered():
    assert shipped_link_models() == {name.split("-")[0] for name in FACTORIES}


def reads(factory, epoch, times):
    """Each time read through ``epoch_at`` on one link and through the two
    older methods on an identically built one."""
    fused, split = factory(epoch), factory(epoch)
    for t in times:
        expected = (split.capacity_at(t), split.next_change_after(t))
        yield t, fused.epoch_at(t), expected


@pytest.mark.parametrize("name", sorted(FACTORIES))
class TestShippedModels:
    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=500.0, allow_nan=False),
            min_size=1,
            max_size=40,
        ),
        st.sampled_from([0.3, 1.0, 6.0]),
    )
    def test_random_times_in_any_order(self, name, times, epoch):
        for t, fused, split in reads(FACTORIES[name], epoch, times):
            assert fused == split, f"t={t!r}"

    def test_epoch_boundaries(self, name):
        epoch = 0.3
        times = [k * epoch for k in range(400)]
        # Either side of each boundary, too.
        times += [math.nextafter(t, -math.inf) for t in times[1:]]
        times += [math.nextafter(t, math.inf) for t in times]
        for t, fused, split in reads(FACTORIES[name], epoch, times):
            assert fused == split, f"t={t!r}"

    def test_negative_time_rejected(self, name):
        with pytest.raises(ValueError, match="non-negative"):
            FACTORIES[name](1.0).epoch_at(-1e-9)


class TwoMethodsOnly(LinkModel):
    """A custom link defining only ``capacity_at`` and
    ``next_change_after``: the default ``epoch_at`` calls both."""

    def __init__(self):
        self.calls = []

    def capacity_at(self, t):
        self.calls.append(("capacity_at", t))
        return 1e6 + math.floor(t / 0.3) * 1e3

    def next_change_after(self, t):
        self.calls.append(("next_change_after", t))
        return (math.floor(t / 0.3) + 1) * 0.3


@given(st.floats(min_value=0.0, max_value=1e4, allow_nan=False))
def test_custom_subclass_gets_the_two_methods(t):
    link = TwoMethodsOnly()
    assert link.epoch_at(t) == (
        TwoMethodsOnly().capacity_at(t),
        TwoMethodsOnly().next_change_after(t),
    )
    assert link.calls == [("capacity_at", t), ("next_change_after", t)]


def test_lazy_links_realize_the_same_epochs():
    # Reading far ahead first, then back, consumes the generator in the
    # same order either way.
    times = [250.0, 0.0, 17.4, 3.0, 600.0, 599.9]
    fused = FACTORIES["HeavyTailLink"](1.0)
    split = FACTORIES["HeavyTailLink"](1.0)
    for t in times:
        fused.epoch_at(t)
        split.capacity_at(t)
    assert fused._realized == split._realized
    assert np.array_equal(
        fused.rng.bit_generator.state["state"]["state"],
        split.rng.bit_generator.state["state"]["state"],
    )


LAZY = ("MarkovLink", "HeavyTailLink")


@pytest.mark.parametrize("name", LAZY)
@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("method", ["epoch_at", "next_change_after"])
def test_a_time_that_is_not_finite_is_named(name, t, method):
    link = FACTORIES[name](1.0)
    with pytest.raises(ValueError, match=rf"^{name}: time must be finite, got"):
        getattr(link, method)(t)
    assert link._realized == []


@pytest.mark.parametrize("name", LAZY)
@pytest.mark.parametrize("epoch", [1.0, 0.3])
def test_a_time_past_the_runaway_guard_realizes_nothing(name, epoch):
    # The first epoch past the guard, and a time ~1e300 epochs out.
    first = link_module._MAX_EPOCHS * epoch
    for t in (math.nextafter(first, math.inf), first * 2.0, 1e300):
        link = FACTORIES[name](epoch)
        with pytest.raises(ValueError, match=rf"^{name}: time .* runaway guard"):
            link.epoch_at(t)
        with pytest.raises(ValueError, match="runaway guard"):
            link.capacity_at(t)
        # Out there a boundary (index + 1) * epoch can round back onto t.
        with pytest.raises(ValueError, match=rf"^{name}: time .* runaway guard"):
            link.next_change_after(t)
        assert link._realized == []


@pytest.mark.parametrize("name", LAZY)
def test_the_last_epoch_before_the_guard_is_answered(name):
    link = FACTORIES[name](1.0)
    last = float(link_module._MAX_EPOCHS - 1)
    assert link.next_change_after(last) == last + 1.0
    assert link._realized == []
