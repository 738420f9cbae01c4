"""Argument checks shared by the library configs and the command line.

Each check returns the value as a plain Python scalar, so numpy scalars
are accepted and stored like the builtin ones, and raises ``error`` (a
``ValueError`` subclass) naming the field otherwise.
"""

from __future__ import annotations

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


def flag(value, field: str, error: type[ValueError] = ValueError) -> bool:
    """``value`` as a plain bool; only bools and numpy bools are accepted."""
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    raise error(f"{field}: expected true or false, got {value!r}")
