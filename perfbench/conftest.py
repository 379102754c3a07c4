"""Make the program's sources importable for the benchmark's own tests."""

import os
import sys

_SOURCES = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if _SOURCES not in sys.path:
    sys.path.insert(0, _SOURCES)
