"""Argument checks shared by the library configs and the command line.

Each check returns the value as a plain Python scalar, so numpy scalars
are accepted and stored like the builtin ones, and raises ``error`` (a
``ValueError`` subclass) naming the field otherwise, as
``"<field>: <rule>, got <value>"``.
"""

from __future__ import annotations

import math
import numbers
import operator

import numpy as np


def count(value, field: str, error: type[ValueError] = ValueError) -> int:
    """``value`` as a plain int; bools, strings and fractions are refused."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise error(f"{field}: expected an integer, got {value!r}")


def real(value, field: str, error: type[ValueError] = ValueError) -> float:
    """``value`` as a plain float; bools, strings and other non-reals are refused."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:
            pass
    raise error(f"{field}: expected a number, got {value!r}")


def positive(value, field: str, error: type[ValueError] = ValueError) -> int:
    """``value`` as a plain int of at least 1 (see :func:`count`)."""
    value = count(value, field, error)
    if value < 1:
        raise error(f"{field}: must be >= 1, got {value}")
    return value


def within(
    value, field: str, high: float = math.inf, error: type[ValueError] = ValueError
) -> float:
    """``value`` as a plain finite float in (0, high] (see :func:`real`)."""
    value = real(value, field, error)
    if 0.0 < value <= high and math.isfinite(value):
        return value
    if high == math.inf:
        rule = "must be a finite number > 0"
    else:
        rule = f"must lie in (0, {'pi/2' if high == math.pi / 2 else high}]"
    raise error(f"{field}: {rule}, got {value}")


def flag(value, field: str, error: type[ValueError] = ValueError) -> bool:
    """``value`` as a plain bool; only bools and numpy bools are accepted."""
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    raise error(f"{field}: expected true or false, got {value!r}")
