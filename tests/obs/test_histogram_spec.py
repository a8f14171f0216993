"""HistogramSpec: one log per bin index, bit for bit, and bad specs by name.

``bin_index`` takes ``log(lo)`` and the log span from the spec (computed
once, in ``__post_init__``) instead of four logs per call.  The operands are
the same doubles, so every index must equal the four-log formula's, which is
frozen below: on random values, on every edge and one ulp either side of it.
"""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fleet.sinks import (
    DURATION_SPEC,
    SSIM_SPEC,
    STALL_RATIO_SPEC,
    FleetHistogram,
)
from repro.obs.registry import RATE_SPEC, SIZE_SPEC, TIME_SPEC, HistogramSpec

NAMED_SPECS = [
    TIME_SPEC,
    SIZE_SPEC,
    RATE_SPEC,
    HistogramSpec(),
    DURATION_SPEC,
    STALL_RATIO_SPEC,
    SSIM_SPEC,
]


def four_log_bin_index(spec, value):
    """``bin_index`` as computed before the logs were hoisted (frozen)."""
    if value < spec.lo:
        return -1
    if value >= spec.hi:
        return spec.n_bins
    span = math.log(spec.hi) - math.log(spec.lo)
    idx = int((math.log(value) - math.log(spec.lo)) / span * spec.n_bins)
    return min(idx, spec.n_bins - 1)


@st.composite
def specs(draw):
    if draw(st.booleans()):
        return draw(st.sampled_from(NAMED_SPECS))
    lo = draw(st.floats(1e-12, 1e12))
    hi = lo * draw(st.floats(1.0 + 1e-9, 1e12))
    return HistogramSpec(lo=lo, hi=hi, n_bins=draw(st.integers(1, 200)))


def around(x):
    return (math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf))


class TestOneLogPerIndex:
    @given(spec=specs(), value=st.floats(allow_nan=False))
    @settings(max_examples=500, deadline=None)
    def test_random_values(self, spec, value):
        assert spec.bin_index(value) == four_log_bin_index(spec, value)

    @given(spec=specs())
    @settings(max_examples=200, deadline=None)
    def test_every_edge_and_one_ulp_either_side(self, spec):
        for edge in spec.edges() + [spec.lo, spec.hi]:
            for value in around(edge):
                assert spec.bin_index(value) == four_log_bin_index(spec, value)

    @pytest.mark.parametrize("spec", NAMED_SPECS, ids=repr)
    def test_named_specs_at_every_edge(self, spec):
        for edge in spec.edges():
            for value in around(edge):
                assert spec.bin_index(value) == four_log_bin_index(spec, value)

    def test_hoisted_logs_are_not_part_of_the_spec(self):
        spec = HistogramSpec(lo=0.5, hi=8.0, n_bins=7)
        assert repr(spec) == "HistogramSpec(lo=0.5, hi=8.0, n_bins=7)"
        assert spec == HistogramSpec.from_dict(spec.to_dict())
        assert hash(spec) == hash(HistogramSpec(0.5, 8.0, 7))


class TestBadSpecsByName:
    def test_infinite_hi(self):
        with pytest.raises(ValueError, match=r"HistogramSpec\.hi must be finite"):
            HistogramSpec(lo=1, hi=math.inf)

    @pytest.mark.parametrize("lo", [math.nan, -math.inf])
    def test_non_finite_lo(self, lo):
        with pytest.raises(ValueError, match=r"HistogramSpec\.lo must be finite"):
            HistogramSpec(lo=lo, hi=10.0)

    def test_infinite_hi_from_a_checkpointed_fleet_histogram(self):
        data = json.loads(json.dumps(FleetHistogram(SSIM_SPEC).to_dict()))
        data["spec"]["hi"] = math.inf
        with pytest.raises(ValueError, match=r"HistogramSpec\.hi must be finite"):
            FleetHistogram.from_dict(json.loads(json.dumps(data)))

    def test_float_n_bins(self):
        with pytest.raises(ValueError, match=r"HistogramSpec\.n_bins must be a whole number"):
            HistogramSpec(n_bins=2.5)

    def test_bool_n_bins(self):
        with pytest.raises(ValueError, match=r"HistogramSpec\.n_bins must be a whole number"):
            HistogramSpec(n_bins=True)

    def test_nan_value(self):
        with pytest.raises(ValueError, match="cannot bin nan"):
            TIME_SPEC.bin_index(math.nan)
