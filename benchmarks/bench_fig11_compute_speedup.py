"""Figure 11: per-task computation time and speedup vs node count.

Paper: "For each task, we obtained linear speedups."  The figure plots
computation time and speedup over 4..128 nodes per task.  We regenerate
the series from full-pipeline simulations (the comp column of the Figure 10
instrumentation) and assert near-linear speedup, anchoring absolute values
against the comp columns of Table 7 (e.g. Doppler at 32 nodes = .0874 s).
"""

import pytest

from benchmarks.common import fmt_row, run_assignment
from repro.core.assignment import CASE2, TASK_NAMES
from repro.experiments.paper import FIG11_COMP_ANCHORS

#: Node sweep per task; the other tasks are held at case 2's counts so
#: the pipeline stays functional while one task is scaled.
SWEEPS = {
    "doppler": (8, 16, 32, 64),
    "easy_weight": (4, 8, 16, 32),
    "hard_weight": (28, 56, 112),
    "easy_beamform": (4, 8, 16, 32),
    "hard_beamform": (7, 14, 28, 56),
    "pulse_compression": (4, 8, 16, 32),
    "cfar": (4, 8, 16, 32),
}


def comp_series(task: str) -> dict[int, float]:
    series = {}
    for nodes in SWEEPS[task]:
        counts = CASE2.with_counts(**{task: nodes}).counts()
        series[nodes] = run_assignment(*counts).metrics.tasks[task].comp
    return series


@pytest.mark.parametrize("task", TASK_NAMES)
def test_fig11_linear_speedup(benchmark, task):
    series = benchmark.pedantic(comp_series, args=(task,), rounds=1, iterations=1)

    nodes = sorted(series)
    base_nodes = nodes[0]
    print()
    print(f"Figure 11 — {task}: computation time and speedup vs nodes")
    print(fmt_row("nodes", "comp (s)", "speedup", "ideal", widths=[6, 10, 8, 8]))
    for n in nodes:
        speedup = series[base_nodes] / series[n]
        ideal = n / base_nodes
        print(fmt_row(n, series[n], speedup, float(ideal), widths=[6, 10, 8, 8]))
        # Linear speedup within 10% ("For each task, we obtained linear
        # speedups").
        assert speedup == pytest.approx(ideal, rel=0.10)
    # Anchor against the paper's Table 7 comp column where available.
    for n, paper_comp in FIG11_COMP_ANCHORS[task].items():
        if n in series:
            assert series[n] == pytest.approx(paper_comp, rel=0.15)
            benchmark.extra_info[f"comp@{n}"] = round(series[n], 4)
            benchmark.extra_info[f"paper@{n}"] = paper_comp
