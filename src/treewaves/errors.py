"""Exception types shared across the package, and the two argument rules.

Two failure families matter to callers: bad inputs (rejected up front, CLI exit
code 2) and internal numerical trouble discovered mid-computation (CLI exit
code 1).

Every count the library takes (the degree d, a radius, a path length, a
number of draws, the quadrature size) and every index (a distance, a sphere,
a curve length, a path position) goes through `integer`, and every level
through `finite`; an index keeps its own message for its range.  They raise
ValidationError with one message per rule:
"<name> must be an integer, got <value!r>", "<name> must be >= <least>, got
<value>" and "<name> must be finite, got <value!r>".
"""

import math

import numpy as np


class ValidationError(ValueError):
    """A parameter or input fails its documented precondition."""


class NumericalError(RuntimeError):
    """An internal consistency or convergence check failed during computation."""


def integer(name: str, value, least: int) -> int:
    """`value` as an int; a bool, a non-integer or a value below `least` is rejected."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValidationError(f"{name} must be >= {least}, got {value}")
    return int(value)


def finite(name: str, value) -> float:
    """`value` as a float; NaN and the infinities are rejected."""
    if not math.isfinite(value):
        raise ValidationError(f"{name} must be finite, got {value!r}")
    return float(value)
