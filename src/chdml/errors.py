"""The two error families the package raises.

* :class:`ConfigError` — the caller asked for something invalid (bad column
  name, bad hyperparameter, malformed config).  The CLI maps these to exit
  code 2.
* :class:`DataError` — the input data cannot support the requested
  operation (unparseable cells, single-class labels, empty columns).
  Exit code 3.
* Plain :class:`OSError` from the filesystem is left alone and mapped to
  exit code 4 by the CLI.

The message of each raise says which case it is; callers tell cases apart
by family only.
"""

from __future__ import annotations

import numbers

__all__ = ["ChdmlError", "ConfigError", "DataError", "check_integer"]


class ChdmlError(Exception):
    """Base class of the two families; nothing raises it directly."""


class ConfigError(ChdmlError):
    """The request itself is invalid, independent of the data."""


class DataError(ChdmlError):
    """The data cannot support the requested operation."""


def check_integer(name: str, value: object, least: int = 0) -> int:
    """``value`` as an int of at least ``least``; else a ConfigError naming ``name``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise ConfigError(f"{name} must be an integer of at least {least}, not {value!r}")
    return int(value)
