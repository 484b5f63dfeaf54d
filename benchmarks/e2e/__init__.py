"""The repository's end-to-end benchmark.

Four workloads cover the three execution paths of the STAP pipeline: the
modeled simulation (``sim-case1``), the sequential kernels
(``chain-seq``), the functional simulation (``functional-case3``) and the
real multi-process runtime (``rt-paper``).  ``BENCHMARK.json`` at the
repository root declares the workloads and metrics; ``README.md`` next to
this file explains them.  Run ``python3 -m benchmarks.e2e --help``.
"""

from pathlib import Path

#: Checkout root: the directory holding ``BENCHMARK.json`` and ``src/``.
ROOT = Path(__file__).resolve().parents[2]
#: Where the program under test lives; it is imported from source.
SRC = ROOT / "src"
