"""Table 9: adding 4 nodes to the Doppler task (case 2 -> 122 nodes).

Paper: "By increasing the number of nodes 3%, the improvement in
throughput is 32% and in latency is 19%."  The secondary effect is the
interesting part: every *other* task's recv time also dropped (e.g. easy
weight .0998 -> .0519) because the Doppler task both computes and
packs/sends faster — "adding nodes to one task not only affects that
task's performance but has a measurable effect on the performance of
other tasks.  Such effects are very difficult to capture in purely
theoretical models."
"""

from benchmarks.common import fmt_row, use_bench_store
from repro.experiments import paper, run_table9


def collect():
    use_bench_store()
    return run_table9()


def test_table9_add_doppler_nodes(benchmark):
    result = benchmark.pedantic(collect, rounds=1, iterations=1)

    print()
    print("Table 9 — case 2 (118 nodes) vs +4 Doppler nodes (122 nodes)")
    print(fmt_row("task", "recv(118)", "recv(122)", "paper(118)", "paper(122)",
                  widths=[18, 10, 10, 10, 10]))
    improved = 0
    for task in paper.TABLE9_RECV:
        cells = result.rows[task]
        before, after = cells["recv (118)"], cells["recv (122)"]
        print(fmt_row(task, before.measured, after.measured, before.paper,
                      after.paper, widths=[18, 10, 10, 10, 10]))
        if cells["recv delta"].measured < 0:
            improved += 1
    # The secondary effect: most successors' recv improves.
    assert improved >= 4

    thpt, lat = result.rows["throughput"], result.rows["latency"]
    thr_gain = result.rows["throughput gain"]["%"]
    lat_gain = result.rows["latency gain"]["%"]
    print(f"throughput: {thpt['118 nodes'].measured:.4f} -> "
          f"{thpt['122 nodes'].measured:.4f}  (+{thr_gain.measured:.0f}%; "
          f"paper +{thr_gain.paper:.0f}%)")
    print(f"latency:    {lat['118 nodes'].measured:.4f} -> "
          f"{lat['122 nodes'].measured:.4f}  (-{lat_gain.measured:.0f}%; "
          f"paper -{lat_gain.paper:.0f}%)")

    # A 3% node increase buys a >15% throughput gain and lower latency.
    assert thr_gain.measured > 15.0
    assert lat_gain.measured > 0.0
    benchmark.extra_info["throughput_gain_pct"] = round(thr_gain.measured, 1)
    benchmark.extra_info["latency_gain_pct"] = round(lat_gain.measured, 1)
