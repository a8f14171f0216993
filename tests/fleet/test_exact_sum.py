"""``ExactSum`` against a ``Fraction`` reference.

``ExactSum`` holds its total as an integer mantissa and a power-of-two
exponent, unnormalized while it accumulates.  Everything observable —
``fraction()``, ``value()``, the hex ``to_dict`` string, ``from_dict``
(legacy scaled form included), ``==`` and ``hash`` — must be what a
``Fraction`` total gives: the dump and checkpoint bytes depend on it.
"""

import sys
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from repro.fleet.sinks import ExactSum

MAX = sys.float_info.max
TINY = 5e-324  # the smallest subnormal
SPECIAL = [
    0.0, -0.0, TINY, -TINY, 2.2250738585072014e-308, -2.2250738585072014e-308,
    2.225073858507201e-308, MAX, -MAX, 1.0, -1.0, 0.1, 3.0, 2.0**-1022,
    1e300, -1e-300,
]

doubles = st.one_of(
    st.sampled_from(SPECIAL),
    st.floats(allow_nan=False, allow_infinity=False, width=64),
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
)

# One operation: ``("add", x)`` or ``("product", (x, ...))`` of 1-4 factors.
operations = st.one_of(
    st.tuples(st.just("add"), doubles),
    st.tuples(st.just("product"), st.lists(doubles, min_size=1, max_size=4)),
)
operation_lists = st.lists(operations, min_size=0, max_size=12)


def exact(operation):
    kind, operand = operation
    if kind == "add":
        return Fraction(operand)
    product = Fraction(1)
    for factor in operand:
        product *= Fraction(factor)
    return product


def apply(total, operation):
    kind, operand = operation
    if kind == "add":
        total.add(operand)
    else:
        total.add_product(*operand)


def summed(operation_list):
    total = ExactSum()
    for operation in operation_list:
        apply(total, operation)
    return total


def rendered(reference):
    """The ``to_dict`` string of a ``Fraction`` total."""
    sign = "-" if reference < 0 else ""
    return (
        f"{sign}{format(abs(reference.numerator), 'x')}"
        f"/{format(reference.denominator, 'x')}"
    )


def rounded(value):
    """``float(value)``, or the exception type it raises (a sum of
    products of huge doubles need not fit in a double)."""
    try:
        return float(value)
    except OverflowError:
        return OverflowError


def value_of(total):
    try:
        return total.value()
    except OverflowError:
        return OverflowError


class TestAgainstFractionReference:
    @given(operation_lists)
    def test_sums_and_products(self, operation_list):
        total = summed(operation_list)
        reference = sum((exact(o) for o in operation_list), Fraction(0))
        assert total.fraction() == reference
        assert total.is_zero() == (reference == 0)
        assert value_of(total) == rounded(reference)
        assert total.to_dict() == rendered(reference)

    @given(operation_lists, st.randoms(use_true_random=False))
    def test_merges_in_any_order(self, operation_list, rng):
        parts = []
        for operation in operation_list:
            if not parts or rng.random() < 0.4:
                parts.append([])
            parts[-1].append(operation)
        rng.shuffle(parts)
        merged = ExactSum()
        for part in parts:
            merged.merge(summed(part))
        whole = summed(operation_list)
        assert merged == whole
        assert merged.to_dict() == whole.to_dict()
        assert merged.fraction() == sum(
            (exact(o) for o in operation_list), Fraction(0)
        )

    @given(operation_lists)
    def test_from_dict_round_trips(self, operation_list):
        total = summed(operation_list)
        restored = ExactSum.from_dict(total.to_dict())
        assert restored == total
        assert restored.to_dict() == total.to_dict()
        assert restored.fraction() == total.fraction()

    @given(st.lists(doubles, max_size=12))
    def test_legacy_scaled_form_round_trips(self, values):
        # The legacy form wrote the total times 2**1074 as a hex integer;
        # sums of doubles (not products) are always such multiples.
        reference = sum((Fraction(v) for v in values), Fraction(0))
        scaled = reference * (1 << 1074)
        assert scaled.denominator == 1
        legacy = format(scaled.numerator, "x")
        restored = ExactSum.from_dict(legacy)
        assert restored.fraction() == reference
        assert restored.to_dict() == rendered(reference)
        assert restored == summed([("add", v) for v in values])

    @given(operation_lists, operation_lists)
    def test_equality_and_hash_agree(self, first, second):
        a, b = summed(first), summed(second)
        assert (a == b) == (a.fraction() == b.fraction())
        assert hash(a) == hash(a.fraction())
        if a == b:
            assert hash(a) == hash(b)

    @given(doubles, st.integers(min_value=1, max_value=60))
    def test_equal_totals_held_differently_are_equal(self, x, k):
        # x added whole, and x as (x / 2**k) * 2**k: different mantissa and
        # exponent pairs, one total.
        whole, scaled = ExactSum(), ExactSum()
        whole.add(x)
        scaled.add_product(x, 2.0**k, 2.0**-k)
        assert whole == scaled
        assert hash(whole) == hash(scaled)
        assert whole.to_dict() == scaled.to_dict()


class TestRejects:
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_factors(self, bad):
        total = ExactSum()
        with pytest.raises(ValueError, match="cannot absorb"):
            total.add(bad)
        with pytest.raises(ValueError, match="cannot absorb"):
            total.add_product(1.0, bad)
        assert total.is_zero()

    @pytest.mark.parametrize("text", ["1/3", "1/0", "-5/c"])
    def test_a_denominator_that_is_not_a_power_of_two(self, text):
        with pytest.raises(ValueError, match="power of two"):
            ExactSum.from_dict(text)

    def test_not_equal_to_other_types(self):
        total = ExactSum()
        total.add(1.5)
        assert total != 1.5
        assert total != Fraction(3, 2)


def test_dump_strings_are_unchanged():
    # Strings a Fraction total rendered, pinned: a dump or checkpoint
    # written before keeps its bytes.
    total = ExactSum()
    for v in (0.1, 0.2, -3.75, 1e-300):
        total.add(v)
    total.add_product(0.1, 0.1, 7.0)
    expected = Fraction(0)
    for v in (0.1, 0.2, -3.75, 1e-300):
        expected += Fraction(v)
    expected += Fraction(0.1) * Fraction(0.1) * 7
    assert total.to_dict() == rendered(expected)
    assert ExactSum().to_dict() == "0/1"
    one = ExactSum()
    one.add(1.0)
    assert one.to_dict() == "1/1"
    big = ExactSum()
    big.add_product(MAX, MAX)
    big.add(-TINY)
    assert big.to_dict() == rendered(Fraction(MAX) ** 2 - Fraction(TINY))
