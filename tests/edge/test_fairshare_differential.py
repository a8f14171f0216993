"""The integer fair-share solver against its ``Fraction`` predecessor, bit
for bit.

``repro.edge.fairshare.max_min_shares`` water-fills on integer numerators;
``tests/edge/fairshare_reference.py`` is the solver it replaced, every
operation a ``fractions.Fraction`` one. Both are exact, so they must agree
on every share to the last bit — ``float.hex()`` below, no tolerance
anywhere in this file — and a fleet run that swaps the old solver into the
cell engine must dump the same bytes. Arbitrary-precision ``int`` and a
correctly rounded ``int / int`` are language guarantees; this file is where
each interpreter CI runs proves it.
"""

import dataclasses
import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.edge.engine
from repro.edge.cells import EdgeConfig
from repro.edge.fairshare import max_min_shares
from repro.experiment.presets import smoke_trial_config
from repro.fleet.runner import FleetConfig, run_fleet
from repro.fleet.workload import WorkloadConfig
from repro.net.path import PopulationModel

from tests.edge.fairshare_reference import (
    max_min_shares as reference_max_min_shares,
)
from tests.fleet.conftest import classical_specs

FORCED = [
    0.0,
    -0.0,
    5e-324,  # the smallest subnormal: denominator 2**1074
    2.2250738585072014e-308,
    1e-300,
    2.0**-60,  # under half an ulp of 1.0: vanishes from a rounded sum
    0.1,
    1.0,
    1.0000000000000002,  # one ulp above 1.0
    3.3e6,
    20e6,
    1e12,
]
"""Values hypothesis would rarely draw, and rarely twice in one example:
zeros, subnormals, rates three hundred orders of magnitude apart, and
neighbours of 1.0 whose rounded sums land on it, which share a list with
equal neighbours below."""

rates = st.one_of(
    st.sampled_from(FORCED),
    st.floats(min_value=0.0, max_value=1e12, allow_nan=False),
    # 1e-300 … 1e12, evenly in the exponent.
    st.floats(min_value=-300.0, max_value=12.0).map(lambda e: 10.0**e),
)

cap_lists = st.lists(rates, min_size=1, max_size=12).flatmap(
    # Equal caps tie at the water level: repeat some of what was drawn.
    lambda caps: st.lists(
        st.sampled_from(caps), min_size=len(caps), max_size=len(caps)
    )
    | st.just(caps)
)

WEIGHTS = {
    "none": lambda n: st.none(),
    # What the engine passes: 1.0 for BBR, EdgeConfig.cubic_weight for CUBIC.
    "cc_classes": lambda n: st.lists(
        st.sampled_from([0.7, 1.0, 1.3]), min_size=n, max_size=n
    ),
    "arbitrary": lambda n: st.lists(
        st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
        | st.sampled_from([5e-324, 1e-300, 1e300]),
        min_size=n,
        max_size=n,
    ),
}


def bits(shares):
    return [share.hex() for share in shares]


@pytest.mark.parametrize("weights_kind", sorted(WEIGHTS))
@given(data=st.data(), capacity=rates, caps=cap_lists)
@settings(max_examples=300, deadline=None)
def test_every_share_has_the_reference_bits(weights_kind, data, capacity, caps):
    weights = data.draw(WEIGHTS[weights_kind](len(caps)))
    assert bits(max_min_shares(capacity, caps, weights)) == bits(
        reference_max_min_shares(capacity, caps, weights)
    )


@pytest.mark.parametrize("weights_kind", sorted(WEIGHTS))
@given(data=st.data(), capacity=rates)
@settings(max_examples=200, deadline=None)
def test_one_flow_has_the_reference_bits(weights_kind, data, capacity):
    # The single-flow short cut, at its edges: a cap equal to the
    # capacity, and -0.0 for either (FORCED draws it as the capacity).
    cap = data.draw(rates | st.sampled_from([capacity, -0.0]))
    weights = data.draw(WEIGHTS[weights_kind](1))
    assert bits(max_min_shares(capacity, [cap], weights)) == bits(
        reference_max_min_shares(capacity, [cap], weights)
    )


def capacities_at_the_sum(caps):
    """Capacities where the caps-fit short cut decides: the correctly
    rounded sum, its two neighbours, and the left-to-right float sum."""
    total = math.fsum(caps)
    return st.sampled_from(
        [
            total,
            math.nextafter(total, math.inf),
            math.nextafter(total, -math.inf),
            sum(caps),
        ]
    ).filter(lambda capacity: capacity >= 0)


@pytest.mark.parametrize("weights_kind", sorted(WEIGHTS))
@given(data=st.data(), caps=cap_lists)
@settings(max_examples=200, deadline=None)
def test_caps_summing_to_about_the_capacity_have_the_reference_bits(
    weights_kind, data, caps
):
    capacity = data.draw(capacities_at_the_sum(caps))
    weights = data.draw(WEIGHTS[weights_kind](len(caps)))
    assert bits(max_min_shares(capacity, caps, weights)) == bits(
        reference_max_min_shares(capacity, caps, weights)
    )


@pytest.mark.parametrize(
    "capacity, caps",
    [
        # The rounded sum equals the capacity; the exact sum exceeds it.
        (1.0, [1.0, 2.0**-60]),
        (1e12, [1e12, 1e-300, 5e-324]),
        # The exact sum is below the capacity but rounds onto it: every
        # flow is capped, and the exact path is the one that says so.
        (2.0**53 + 2, [2.0**53, 1.5]),
        # The exact sum is below the capacity by less than an ulp of it.
        (1.0000000000000002, [1.0, 2.0**-60]),
        # 0.1 + 0.2 + 0.3 adds up to 0.6000000000000001 left to right and
        # to 0.6 correctly rounded; the exact sum lies between the two.
        (0.6, [0.1, 0.2, 0.3]),
        (0.6000000000000001, [0.1, 0.2, 0.3]),
        # Left to right the caps add up to less than the capacity, which
        # is one ulp below their correctly rounded sum: the exact sum is
        # above it, and the 2.2 flow gets one ulp less than its cap.
        (2.92, [0.3, 2.2, 0.01, 0.1, 0.3, 0.01]),
    ],
)
@pytest.mark.parametrize("weighted", [False, True])
def test_sums_that_round_onto_the_capacity(capacity, caps, weighted):
    weights = [(1.3, 0.7, 1.0)[i % 3] for i in range(len(caps))]
    weights = weights if weighted else None
    assert bits(max_min_shares(capacity, caps, weights)) == bits(
        reference_max_min_shares(capacity, caps, weights)
    )


@pytest.mark.parametrize(
    "capacity", [0.0, 5e-324, 2.5e6, 11.123e6, 40e6, 1e12]
)
def test_every_permutation_of_a_four_flow_case(capacity):
    # A cap below, at and above the water level, a zero, and unequal
    # weights: flows freeze in different rounds depending on capacity.
    flows = [(3.3e6, 1.0), (0.0, 1.3), (12.7e6, 0.7), (3.3e6, 1.3)]
    for order in itertools.permutations(range(4)):
        caps = [flows[i][0] for i in order]
        weights = [flows[i][1] for i in order]
        live = max_min_shares(capacity, caps, weights)
        assert bits(live) == bits(
            reference_max_min_shares(capacity, caps, weights)
        )
        # And each share follows its flow.
        home = max_min_shares(
            capacity, [c for c, _ in flows], [w for _, w in flows]
        )
        assert bits(live) == bits([home[i] for i in order])


def uint64_bits(shares):
    return np.array(shares, dtype=np.float64).view(np.uint64).tolist()


EQUAL_SHARE_CAPACITIES = [
    0.0,
    -0.0,
    5e-324,
    1.5e-323,  # three subnormal units: a half-unit share rounds to even
    0.1,
    0.6,
    1.0,
    1.9999999999999998,
    3.3e6,
    12_345_678.9,
    20e6,
    2.0**53 + 2,
    1e300,
]


@pytest.mark.parametrize("weight", [None, 1.0, 1.3])
@pytest.mark.parametrize("n", range(2, 8))
@pytest.mark.parametrize("capacity", EQUAL_SHARE_CAPACITIES)
def test_the_equal_share_boundary_has_the_reference_bits(weight, n, capacity):
    # The equal-share short cut decides on min(caps) * n > capacity, a
    # rounded product: the smallest cap at capacity / n and one ulp to
    # either side, alone or with every other flow at the same cap or with
    # room to spare, under default, unit and non-unit common weights.
    weights = None if weight is None else [weight] * n
    share = capacity / n
    for low in (math.nextafter(share, -math.inf), share, math.nextafter(share, math.inf)):
        if low < 0:
            continue
        roomy = max(2.0 * low, 1.0)
        for caps in (
            [low] * n,
            [low] + [roomy] * (n - 1),
            [roomy] * (n - 1) + [low],
        ):
            assert uint64_bits(max_min_shares(capacity, caps, weights)) == (
                uint64_bits(reference_max_min_shares(capacity, caps, weights))
            ), (capacity, caps, weights)


def _dump_bytes(result) -> bytes:
    return json.dumps(result.to_dump_dict(), sort_keys=True, indent=2).encode()


def test_a_fleet_on_the_reference_solver_dumps_the_same_bytes(monkeypatch):
    # Shared cells whose flows mix BBR and CUBIC, so the solver sees
    # unequal, non-dyadic weights. The pool forks after the patch, so the
    # workers run the reference solver too.
    config = FleetConfig(
        workload=WorkloadConfig(days=0.02, sessions_per_hour=80.0, seed=5),
        trial=dataclasses.replace(
            smoke_trial_config(seed=11),
            population=PopulationModel(cubic_fraction=0.5),
        ),
        chunk_sessions=8,
        edge=EdgeConfig(
            mean_cell_sessions=4.0,
            cell_capacity_bps=8e6,
            cubic_weight=1.3,
            seed=3,
        ),
    )
    specs = classical_specs()
    live = {w: run_fleet(specs, config, workers=w) for w in (1, 2)}
    assert live[1].edge_stats["shared_cells"] > 0

    solves = []

    def counting_reference(capacity, caps, weights=None):
        solves.append((len(caps), *weights))
        return reference_max_min_shares(capacity, caps, weights)

    monkeypatch.setattr(
        repro.edge.engine, "max_min_shares", counting_reference
    )
    for workers in (1, 2):
        frozen = run_fleet(specs, config, workers=workers)
        assert _dump_bytes(frozen) == _dump_bytes(live[workers])
    # The in-process run went through the patch: contended solves, with
    # both weight classes in one of them.
    assert any({1.0, 1.3} <= set(solve[1:]) for solve in solves)
