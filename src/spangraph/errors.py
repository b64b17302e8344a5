"""Exception types shared across the package, and the size check that
turns an array numpy cannot shape into a ConfigError.

The command-line front end maps these onto process exit codes:
ConfigError -> 1, DataError -> 2, NumericalError -> 3.
"""

import math
import sys


class SpangraphError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(SpangraphError):
    """Invalid configuration: bad parameter values or malformed config file."""


class DataError(SpangraphError):
    """Invalid dataset: parse, range, or shape problems in input files."""


class NumericalError(SpangraphError):
    """Non-finite values encountered during training."""


def refuse_unshapeable(what: str, *shape: int, itemsize: int = 8) -> None:
    """Raise ConfigError if numpy cannot shape a ``shape`` array of
    ``itemsize``-byte items: its bytes exceed the largest index.  A shape
    numpy accepts but memory cannot hold ends in MemoryError instead."""
    if math.prod(shape) * itemsize > sys.maxsize:
        raise ConfigError(f"{what} needs a {' x '.join(map(str, shape))} array, "
                          f"larger than numpy can shape")
