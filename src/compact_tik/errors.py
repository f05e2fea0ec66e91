"""Exception types and the checks shared across the package.

Invalid arguments raise the builtin ``ValueError``; this module adds the
failure mode that has no builtin counterpart, the one check every scalar
setting goes through, and the one length check every binary reader does.
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


def check_length(path, actual, expected, at_least=False):
    """ValueError naming ``path`` unless the file of ``actual`` bytes has ``expected`` bytes.

    ``at_least`` accepts a longer file, for a reader that has read only a
    header so far and learns the full length from it.
    """
    if actual < expected or (actual > expected and not at_least):
        bound = "at least " if at_least else ""
        raise ValueError(f"{path}: expected {bound}{expected} bytes, got {actual}")
