"""Enumeration caps.

Materializing operations (block sets, automaton tables, shattered-subset scans,
tree vertex ids and witnesses, tree count bits) refuse to build more than the cap:
CapExceeded.
The default is 2**24 objects; the SHIFTLAB_CAP environment variable
overrides it process-wide and is read at call time so tests can adjust it;
a value that is not a positive integer raises ConfigError.
"""

from __future__ import annotations

import os

from .errors import ConfigError

DEFAULT_CAP = 1 << 24


def enumeration_cap() -> int:
    raw = os.environ.get("SHIFTLAB_CAP")
    if raw is None:
        return DEFAULT_CAP
    try:
        value = int(raw)
    except ValueError:
        value = 0
    if value < 1:
        raise ConfigError(f"SHIFTLAB_CAP must be a positive integer, got {raw!r}")
    return value
