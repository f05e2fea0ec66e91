"""Exception types and the range check shared across the package.

Invalid arguments raise the builtin ``ValueError``; this module adds the
failure mode that has no builtin counterpart, and the one check every
scalar setting goes through.
"""

import math


class NumericalFailureError(RuntimeError):
    """Raised when a computation produces non-finite values or a solver breaks down."""


def check_positive(name, value, zero_ok=False):
    """ValueError naming ``name`` unless 0 < value < inf, or value == 0 when ``zero_ok``."""
    # the comparisons are False for NaN, so NaN is out of range too
    if not (0 < value < math.inf or (zero_ok and value == 0)):
        sign = "nonnegative" if zero_ok else "positive"
        raise ValueError(f"{name} must be {sign} and finite, got {value}")
