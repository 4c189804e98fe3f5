"""Enumeration caps.

Materializing operations (block sets, automaton tables, shattered-subset
scans) refuse to build more objects than the cap and raise CapExceeded.
The default is 2**24 objects; the SHIFTLAB_CAP environment variable
overrides it process-wide and is read at call time so tests can adjust it.
"""

from __future__ import annotations

import os

DEFAULT_CAP = 1 << 24


def enumeration_cap() -> int:
    raw = os.environ.get("SHIFTLAB_CAP")
    if raw is None:
        return DEFAULT_CAP
    value = int(raw)
    if value < 1:
        raise ValueError(f"SHIFTLAB_CAP must be positive, got {value}")
    return value
