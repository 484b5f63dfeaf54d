"""``python3 -m benchmarks.e2e``: run from the root of a checkout."""

import sys

from benchmarks.e2e import SRC

if __name__ == "__main__":
    # Without the program's source there is nothing to measure: fail
    # before printing anything that could be read as a result.
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"benchmarks.e2e: program source not found under {SRC}")
    sys.path.insert(0, str(SRC))
    from benchmarks.e2e.cli import main

    sys.exit(main())
