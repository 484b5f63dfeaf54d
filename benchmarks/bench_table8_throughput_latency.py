"""Table 8: throughput and latency, equations vs measurement, 3 cases.

Paper ("real" rows): throughput 7.27 / 3.80 / 1.99 CPIs per second and
latency 0.362 / 0.681 / 1.353 s for 236 / 118 / 59 nodes — i.e. both
metrics scale linearly with machine size, the paper's headline result.
Latency here uses the two-phase measurement (probe throughput, re-run with
the input paced at it), mirroring the radar-paced arrivals of the real
system; equations (1)/(2) come from the per-task timing.
"""

import pytest

from benchmarks.common import fmt_row, use_bench_store
from repro.experiments import PAPER_CASES, run_table8


def collect():
    use_bench_store()
    return run_table8()


def test_table8_throughput_latency(benchmark):
    result = benchmark.pedantic(collect, rounds=1, iterations=1)

    print()
    print("Table 8 — throughput (CPIs/s) and latency (s): measured vs paper")
    print(fmt_row("case", "nodes", "thpt", "p.thpt", "lat", "p.lat",
                  widths=[6, 6, 8, 8, 8, 8]))
    for key in ("case1", "case2", "case3"):
        cells = result.rows[key]
        thpt, lat = cells["throughput"], cells["latency"]
        print(fmt_row(key, PAPER_CASES[key].total_nodes, thpt.measured,
                      thpt.paper, lat.measured, lat.paper,
                      widths=[6, 6, 8, 8, 8, 8]))
        # Within 15% of the paper's absolute numbers.
        assert thpt.measured == pytest.approx(thpt.paper, rel=0.15)
        assert lat.measured == pytest.approx(lat.paper, rel=0.15)
        # Equation (2) upper-bounds measured latency, as the paper notes.
        assert cells["eq_latency"].measured >= 0.95 * lat.measured
        benchmark.extra_info[f"{key}.throughput"] = round(thpt.measured, 4)
        benchmark.extra_info[f"{key}.latency"] = round(lat.measured, 4)

    # The headline: linear scaling across the three machine sizes.
    t1, t2, t3 = (result.rows[key]["throughput"].measured
                  for key in ("case1", "case2", "case3"))
    assert t1 / t2 == pytest.approx(2.0, rel=0.1)
    assert t2 / t3 == pytest.approx(2.0, rel=0.1)
    l1, l2, l3 = (result.rows[key]["latency"].measured
                  for key in ("case1", "case2", "case3"))
    assert l2 / l1 == pytest.approx(2.0, rel=0.15)
    assert l3 / l2 == pytest.approx(2.0, rel=0.15)
