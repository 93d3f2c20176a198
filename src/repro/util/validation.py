"""Small argument-validation helpers.

Scheduling parameters have hard domain constraints from the task model in
Sec. 2 of the paper (``C_i > 0``, ``T_i > 0``, ``Y_i >= 0``,
``xi_i >= 0``, ``0 < s(t) <= 1`` during recovery, ...).  Centralizing the
checks keeps the dataclass ``__post_init__`` bodies declarative and the
error messages uniform.
"""

from __future__ import annotations

import math
from typing import Any

__all__ = [
    "check_positive",
    "check_nonnegative",
    "check_finite",
    "check_in_range",
    "store_floats",
]


def _is_real(value: Any) -> bool:
    try:
        float(value)
    except (TypeError, ValueError):
        return False
    return True


def check_finite(name: str, value: Any) -> None:
    """Raise :class:`ValueError` unless *value* is a finite real number."""
    if not _is_real(value) or not math.isfinite(float(value)):
        raise ValueError(f"{name} must be a finite real number, got {value!r}")


def check_positive(name: str, value: Any) -> None:
    """Raise :class:`ValueError` unless *value* is finite and > 0."""
    check_finite(name, value)
    if not value > 0:
        raise ValueError(f"{name} must be > 0, got {value!r}")


def check_nonnegative(name: str, value: Any) -> None:
    """Raise :class:`ValueError` unless *value* is finite and >= 0."""
    check_finite(name, value)
    if not value >= 0:
        raise ValueError(f"{name} must be >= 0, got {value!r}")


def store_floats(spec: Any, *names: str) -> None:
    """Store the named fields of frozen dataclass *spec* as floats.

    Spec keys hash the JSON form, and a JSON reload reads numbers back as
    floats: storing floats at construction keeps an int-built spec
    (``horizon=2``) keyed like its reloaded twin.  ``None`` (an unset
    optional) stays ``None``.
    """
    for name in names:
        value = getattr(spec, name)
        if value is not None:
            object.__setattr__(spec, name, float(value))


def check_in_range(
    name: str,
    value: Any,
    low: float,
    high: float,
    *,
    low_open: bool = False,
    high_open: bool = False,
) -> None:
    """Raise :class:`ValueError` unless *value* lies in the given interval.

    ``low_open``/``high_open`` select open endpoints, e.g. the recovery
    speed constraint ``0 < s <= 1`` is
    ``check_in_range("s", s, 0, 1, low_open=True)``.
    """
    check_finite(name, value)
    ok_low = value > low if low_open else value >= low
    ok_high = value < high if high_open else value <= high
    if not (ok_low and ok_high):
        lb = "(" if low_open else "["
        hb = ")" if high_open else "]"
        raise ValueError(f"{name} must be in {lb}{low}, {high}{hb}, got {value!r}")
