"""The registry's canonical bytes against ``json.dumps``, property-tested.

``_canonical_bytes`` lays numeric lists out itself so the C encoder can
write their numbers; what it returns must still be the bytes of
``json.dumps(payload, sort_keys=True, indent=2) + "\\n"`` — they are the
registry's hashing surface, and every generation's hash chains to them.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ttp import TransmissionTimePredictor, TtpConfig
from repro.fleet.retrain import _canonical_bytes


def reference(payload):
    return (json.dumps(payload, sort_keys=True, indent=2) + "\n").encode("utf-8")


NUMBERS = st.one_of(
    # NaN, ±inf and -0.0 included: json writes NaN / Infinity / -0.0.
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(),
    # Beyond 64 bits.
    st.integers(min_value=2**64, max_value=2**200).flatmap(
        lambda n: st.sampled_from([n, -n])
    ),
    st.sampled_from([0.0, -0.0, 1e-320, 1.7976931348623157e308]),
)
LEAVES = st.one_of(
    NUMBERS,
    st.booleans(),
    st.none(),
    st.text(),
)
# Non-ASCII keys, escapes and the empty key among them.
KEYS = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)), max_size=6
)
JSON = st.recursive(
    LEAVES,
    lambda children: st.one_of(
        # Numeric leaf lists (the C-encoded case), with bools and None
        # mixed in now and then (which must not take it).
        st.lists(NUMBERS, max_size=8),
        st.lists(st.one_of(NUMBERS, st.booleans(), st.none()), max_size=8),
        st.lists(children, max_size=4),
        st.tuples(children, NUMBERS),
        st.dictionaries(KEYS, children, max_size=4),
    ),
    max_leaves=30,
)


@given(payload=st.dictionaries(KEYS, JSON, max_size=5))
@settings(max_examples=300, deadline=None)
def test_equals_json_dumps(payload):
    assert _canonical_bytes(payload) == reference(payload)


@given(leaf=JSON)
@settings(max_examples=100, deadline=None)
def test_any_value_under_a_key(leaf):
    assert _canonical_bytes({"v": leaf, "w": [leaf, {}]}) == reference(
        {"v": leaf, "w": [leaf, {}]}
    )


def test_non_string_keys_are_written_as_json_does():
    # Sorted as the keys themselves, then written as their JSON literal.
    for keys in ([10, 9, -1], [2.5, float("nan"), -0.0], [True, False], [None]):
        payload = {"a": {key: [1.5, key] for key in keys}}
        assert _canonical_bytes(payload) == reference(payload)


def test_a_generation_payload():
    # What the registry writes: a TTP's state dict, weight matrices as
    # lists of float lists.
    ttp = TransmissionTimePredictor(TtpConfig(horizon=2, hidden=(8,)), seed=3)
    payload = {"generation": 1, "day": 0, "state": ttp.state_dict()}
    assert _canonical_bytes(payload) == reference(payload)


def test_separators_inside_strings_stay():
    # Only numbers may take the one-line path: a string can hold ", ".
    for payload in ({"s": ["a, b", "c"]}, {"s": ["x, y", 1.0, 2]}, {"a, b": [1, 2]}):
        assert _canonical_bytes(payload) == reference(payload)
