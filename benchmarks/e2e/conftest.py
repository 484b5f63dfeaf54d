"""Let ``pytest benchmarks/e2e`` import the program from ``src/``."""

import sys

from benchmarks.e2e import SRC

if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))
