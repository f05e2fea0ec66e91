"""Exception types, the checks shared across the package, and the float64 file container.

Invalid arguments raise the builtin ``ValueError``; this module adds the
failure mode that has no builtin counterpart, the one check every scalar
setting goes through and the integer check of every count, the magic and
length checks and path-named header errors of every binary reader, and
the one writer/reader pair of the ``.imgf`` and ``.sinf`` files.
"""

import contextlib
import math
import numbers
import struct

import numpy as np


class NumericalFailureError(RuntimeError):
    """Raised when a computation produces non-finite values or a solver breaks down."""


def check_positive(name, value, zero_ok=False):
    """ValueError naming ``name`` unless 0 < value < inf, or value == 0 when ``zero_ok``."""
    # the comparisons are False for NaN, so NaN is out of range too
    if not (0 < value < math.inf or (zero_ok and value == 0)):
        sign = "nonnegative" if zero_ok else "positive"
        raise ValueError(f"{name} must be {sign} and finite, got {value}")


def check_count(name, value):
    """:func:`check_positive`, then a ValueError naming ``name`` unless ``value`` is an integer."""
    check_positive(name, value)
    if not isinstance(value, numbers.Integral):  # numpy integers pass; a cap of 2.5 runs 3 steps
        raise ValueError(f"{name} must be an integer, got {value!r}")


def check_length(path, actual, expected, at_least=False):
    """ValueError naming ``path`` unless the file of ``actual`` bytes has ``expected`` bytes.

    ``at_least`` accepts a longer file, for a reader that has read only a
    header so far and learns the full length from it.
    """
    if actual < expected or (actual > expected and not at_least):
        bound = "at least " if at_least else ""
        raise ValueError(f"{path}: expected {bound}{expected} bytes, got {actual}")


def check_magic(path, blob, magic):
    """ValueError naming ``path`` unless the file's bytes ``blob`` start with ``magic``."""
    if blob[:len(magic)] != magic:
        raise ValueError(f"{path}: bad magic {blob[:len(magic)]!r}, expected {magic!r}")


@contextlib.contextmanager
def naming_path(path):
    """Prefix ``path`` to a ValueError raised in the block, such as a header field out of range."""
    try:
        yield
    except ValueError as error:
        raise ValueError(f"{path}: {error}") from None


def write_float64_file(path, magic, header_format, header, values):
    """Write ``magic``, the ``struct`` header, then ``values`` as float64 little-endian.

    The first two header fields multiply to the number of values.
    """
    with open(path, "wb") as f:
        f.write(magic + struct.pack(header_format, *header))
        f.write(np.asarray(values).astype("<f8").tobytes())


def read_float64_file(path, magic, header_format):
    """(header fields, float64 values) of a file written by :func:`write_float64_file`."""
    with open(path, "rb") as f:
        blob = f.read()
    check_magic(path, blob, magic)
    start = len(magic) + struct.calcsize(header_format)
    check_length(path, len(blob), start, at_least=True)
    header = struct.unpack_from(header_format, blob, len(magic))
    check_length(path, len(blob), start + 8 * header[0] * header[1])
    return header, np.frombuffer(blob, dtype="<f8", offset=start).copy()
