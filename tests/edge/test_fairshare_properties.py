"""Property-based suite for the weighted max-min fair-share solver.

The solver is the numeric heart of the cell co-simulation: every event in
every shared cell re-solves it, and the determinism contract requires its
output to be a pure function of the multiset of (cap, weight) pairs — in
particular *permutation-invariant*, which is why it computes on exact
integer numerators and rounds to float once per flow at the end.
"""

import math

import pytest
from hypothesis import given, strategies as st

from repro.edge.fairshare import max_min_shares

_capacities = st.floats(
    min_value=0.0, max_value=1e9, allow_nan=False, allow_infinity=False
)
_caps = st.lists(
    st.floats(
        min_value=0.0, max_value=1e9, allow_nan=False, allow_infinity=False
    ),
    min_size=1,
    max_size=12,
)


def _weights_for(caps, draw_weights):
    return draw_weights[: len(caps)] if draw_weights else None


class TestConservation:
    @given(capacity=_capacities, caps=_caps)
    def test_shares_never_exceed_capacity_or_caps(self, capacity, caps):
        shares = max_min_shares(capacity, caps)
        assert len(shares) == len(caps)
        for share, cap in zip(shares, caps):
            assert share >= 0.0
            assert share <= cap * (1 + 1e-9) + 1e-9
        assert sum(shares) <= capacity * (1 + 1e-9) + 1e-9

    @given(capacity=_capacities, caps=_caps)
    def test_work_conserving(self, capacity, caps):
        """The link is fully used unless every flow is cap-limited."""
        shares = max_min_shares(capacity, caps)
        total = sum(shares)
        all_capped = all(
            math.isclose(share, cap, rel_tol=1e-9, abs_tol=1e-9)
            for share, cap in zip(shares, caps)
        )
        assert all_capped or math.isclose(
            total, capacity, rel_tol=1e-9, abs_tol=1e-9
        )


class TestPermutationInvariance:
    @given(
        capacity=_capacities,
        caps=_caps,
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_shares_follow_the_permutation_exactly(
        self, capacity, caps, seed
    ):
        """Bitwise — the engine's determinism depends on it, not just
        up to float tolerance."""
        import numpy as np

        weights = [1.0 + (i % 3) for i in range(len(caps))]
        base = max_min_shares(capacity, caps, weights)
        perm = list(np.random.default_rng(seed).permutation(len(caps)))
        permuted = max_min_shares(
            capacity, [caps[i] for i in perm], [weights[i] for i in perm]
        )
        assert [base[i] for i in perm] == permuted


class TestSingletonCollapse:
    @given(capacity=_capacities, cap=_capacities)
    def test_single_flow_gets_the_bottleneck(self, capacity, cap):
        """One flow alone must collapse to the private-link rate —
        the solver-level face of degenerate-cell equivalence."""
        assert max_min_shares(capacity, [cap]) == [min(capacity, cap)]

    @given(capacity=_capacities, cap=_capacities)
    def test_weight_is_irrelevant_when_alone(self, capacity, cap):
        assert max_min_shares(capacity, [cap], [7.5]) == [
            min(capacity, cap)
        ]


class TestWeighted:
    def test_weighted_split_uncapped(self):
        shares = max_min_shares(90.0, [1e9, 1e9], [1.0, 2.0])
        assert shares == [30.0, 60.0]

    def test_capped_flow_releases_to_others(self):
        shares = max_min_shares(100.0, [10.0, 1e9])
        assert shares == [10.0, 90.0]

    def test_validation(self):
        with pytest.raises(ValueError):
            max_min_shares(-1.0, [1.0])
        with pytest.raises(ValueError):
            max_min_shares(1.0, [-1.0])
        with pytest.raises(ValueError):
            max_min_shares(1.0, [1.0], [0.0])
        with pytest.raises(ValueError):
            max_min_shares(1.0, [1.0], [1.0, 2.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_inputs_are_rejected_by_argument(self, bad):
        # Always a ValueError that names the argument: never the
        # OverflowError float.as_integer_ratio raises for an infinity.
        with pytest.raises(ValueError, match="capacity_bps"):
            max_min_shares(bad, [1.0, 2.0])
        with pytest.raises(ValueError, match="caps_bps"):
            max_min_shares(1.0, [1.0, bad])
        with pytest.raises(ValueError, match="weights"):
            max_min_shares(1.0, [1.0, 2.0], [bad, 1.0])

    def test_empty(self):
        assert max_min_shares(10.0, []) == []
