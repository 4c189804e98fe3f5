"""Put the benchmark's modules and the shiftlab sources on the import path."""

from __future__ import annotations

import os
import sys

sys.dont_write_bytecode = True

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))
