"""Table 7: full per-task timing for the three processor assignments.

Paper: case 1 (236 nodes), case 2 (118), case 3 (59).  Every task's
recv/comp/send decomposition plus throughput and latency.  The calibrated
compute model reproduces the comp column nearly exactly (that column is
the calibration *source* only for case 1; cases 2 and 3 are predictions),
and the recv/send columns — emergent from the simulated network and
pipelining — land within tens of percent.
"""

import pytest

from benchmarks.common import fmt_row, use_bench_store
from repro.core.assignment import TASK_NAMES
from repro.experiments import PAPER_CASES, run_paper_case, run_table7

COLUMNS = ("recv", "comp", "send")


def collect(case_key):
    use_bench_store()
    return run_table7(case_key)


@pytest.mark.parametrize("case_key", ["case3", "case2", "case1"])
def test_table7_case(benchmark, case_key):
    result = benchmark.pedantic(collect, args=(case_key,), rounds=1, iterations=1)

    print()
    print(f"Table 7 — {PAPER_CASES[case_key].name} (measured | paper)")
    print(fmt_row("task", "recv", "comp", "send", "p.recv", "p.comp", "p.send",
                  widths=[18, 8, 8, 8, 8, 8, 8]))
    for task in TASK_NAMES:
        cells = result.rows[task]
        print(fmt_row(task, *(cells[c].measured for c in COLUMNS),
                      *(cells[c].paper for c in COLUMNS),
                      widths=[18, 8, 8, 8, 8, 8, 8]))
        # Computation column: the heart of the calibration/prediction.
        # (15%: the paper's weight tasks scale slightly super-linearly —
        # cache effects — where our rate model is exactly linear.)
        comp = cells["comp"]
        assert comp.measured == pytest.approx(comp.paper, rel=0.15), task
    throughput = result.rows["throughput"]["CPIs/s"].measured
    # The table publishes no unpaced latency; the run behind it is a
    # result-cache hit.
    latency = run_paper_case(case_key, measured=False).metrics.measured_latency
    print(f"throughput {throughput:.4f} CPIs/s, "
          f"latency (unpaced) {latency:.4f} s")

    benchmark.extra_info["throughput"] = round(throughput, 4)
    for task in TASK_NAMES:
        benchmark.extra_info[f"{task}.comp"] = round(
            result.rows[task]["comp"].measured, 4
        )
