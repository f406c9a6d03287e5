"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes (``cli._EXITS``): configuration errors
-> 2, data/input errors -> 3, numerical errors and running out of memory -> 4.
"""

import numpy as np


class NnsigError(Exception):
    """Base class for all package errors."""


class ConfigurationError(NnsigError):
    """Invalid configuration: bad dimensions, out-of-range parameters, malformed config files."""


class InputError(NnsigError):
    """Invalid runtime input: dimension mismatches, empty data."""


class IngestionError(InputError):
    """CSV ingestion failure: non-numeric cells, missing columns, degenerate columns."""


class FormatError(InputError):
    """Model file is corrupt, truncated, or of an unknown version."""


class NumericalError(NnsigError):
    """Numerical failure, e.g. a covariance matrix that cannot be factorized."""


class DivergenceError(NumericalError):
    """Training produced NaN or Inf loss."""


def allocate(shape, what: str, dtype=np.float64) -> np.ndarray:
    """``np.empty(shape, dtype)``, made before the work that fills it, so that
    a size no array can hold is out of memory at once: numpy raises
    ``MemoryError`` for a size past the free memory, and its "array is too
    big" ``ValueError``, for a byte count past the index range, becomes a
    ``MemoryError`` naming ``what``. Negative sizes are checked by the caller."""
    try:
        return np.empty(shape, dtype)
    except ValueError:
        raise MemoryError(f"{what} fit in no array") from None
