"""Structured experiment runners for the paper's evaluation.

Each function reproduces one table (or figure) of the paper and returns a
typed result object carrying both the measured values and the paper's
published ones (typed once, in :mod:`repro.experiments.paper`), so
callers — the CLI, the benchmark harness, notebooks — can render or
assert on them uniformly.

    from repro.experiments import run_table8
    result = run_table8(num_cpis=25)
    print(result.render())
    assert result.rows["case2"]["throughput"].within(0.15)
"""

from repro.experiments.records import Comparison, TableResult
from repro.experiments.paper import PAPER_CASES
from repro.experiments.tables import (
    TABLE_RUNNERS,
    run_paper_case,
    run_table1,
    run_table7,
    run_table8,
    run_table9,
    run_table10,
    run_baseline,
)
from repro.experiments.sweeps import (
    scalability_curve,
    scalability_points,
    speedup_points,
    speedup_series,
)
from repro.experiments.report import generate_report, write_report

__all__ = [
    "generate_report",
    "write_report",
    "Comparison",
    "TableResult",
    "run_table1",
    "run_table7",
    "run_table8",
    "run_table9",
    "run_table10",
    "run_baseline",
    "run_paper_case",
    "TABLE_RUNNERS",
    "PAPER_CASES",
    "speedup_series",
    "speedup_points",
    "scalability_curve",
    "scalability_points",
]
