"""repro.fields — the kinds of number a config or model is built from.

A hand-written range check lets absurd values through: NaN passes every
ordered comparison (``nan <= 0`` is false), an infinity passes any lower
bound, ``True`` is an int and 2.5 passes ``>= 1``.  A kind refuses them all:

* :func:`finite` — an int, a float or a numpy scalar (not a bool or a
  string), neither NaN nor infinite;
* :func:`positive` / :func:`non_negative` — finite and ``> 0`` / ``>= 0``;
* :func:`probability` — finite and in ``[0, 1]``;
* :func:`whole` / :func:`whole_positive` — an integral value ``>= 0`` /
  ``>= 1``, returned as an ``int`` (``int()`` would truncate 2.7 to 2).

A float kind returns the value as given, checked but not rewritten, so a
config's ``repr`` and ``to_dict`` (its fingerprint) are what its caller
wrote.  An error names the owner, the field and the value as given:
``RetrainConfig.window_days must be a whole number ≥ 1, got nan``.

A dataclass declares each numeric field's kind once, in ``KINDS``, and its
``__post_init__`` calls :func:`check`; a range no kind covers is one check
after that, on a value proved finite.  Kinds take no bounds.  Any other
constructor calls the kinds directly.  A check made per call or per chunk
stays inline where it is made: it is on the hot path.
"""

from __future__ import annotations

import math
from numbers import Integral, Real
from typing import Any


def _is_finite(value: Any) -> bool:
    if type(value) is float:
        return math.isfinite(value)
    if isinstance(value, Integral):  # of any size, so never converted
        return not isinstance(value, bool)
    return isinstance(value, Real) and math.isfinite(value)


def _error(owner: str, name: str, what: str, value: Any) -> ValueError:
    return ValueError(f"{owner}.{name} must be {what}, got {value!r}")


def finite(owner: str, name: str, value: Any) -> Any:
    if _is_finite(value):
        return value
    raise _error(owner, name, "finite", value)


def positive(owner: str, name: str, value: Any) -> Any:
    if _is_finite(value) and value > 0:
        return value
    raise _error(owner, name, "finite and positive", value)


def non_negative(owner: str, name: str, value: Any) -> Any:
    if _is_finite(value) and value >= 0:
        return value
    raise _error(owner, name, "finite and non-negative", value)


def probability(owner: str, name: str, value: Any) -> Any:
    if _is_finite(value) and 0 <= value <= 1:
        return value
    raise _error(owner, name, "a probability in [0, 1]", value)


def _whole(owner: str, name: str, value: Any, least: int) -> int:
    if _is_finite(value) and value >= least and int(value) == value:
        return int(value)
    raise _error(owner, name, f"a whole number ≥ {least}", value)


def whole(owner: str, name: str, value: Any) -> int:
    return _whole(owner, name, value, 0)


def whole_positive(owner: str, name: str, value: Any) -> int:
    return _whole(owner, name, value, 1)


def check(instance: Any) -> None:
    """Check each field ``type(instance).KINDS`` declares, in order, and
    store what its kind returns where that differs (a whole number's
    ``int``)."""
    owner = type(instance).__name__
    for name, kind in instance.KINDS.items():
        value = getattr(instance, name)
        checked = kind(owner, name, value)
        if checked is not value:
            object.__setattr__(instance, name, checked)
