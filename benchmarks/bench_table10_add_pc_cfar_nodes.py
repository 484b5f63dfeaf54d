"""Table 10: adding 16 nodes to pulse compression + CFAR (-> 138 nodes).

Paper: "the throughput did not improve compared to the results in Table 9,
even though this assignment has 16 more nodes.  In this case, the weight
tasks are the bottleneck ... On the other hand, we observe 23% improvement
in the latency" — because pulse compression and CFAR sit on the latency
critical path (equation 3) while throughput is pinned by the slowest task.
"""

import pytest

from benchmarks.common import use_bench_store
from repro.experiments import run_paper_case, run_table10
from repro.scheduling import analyze_bottleneck


def collect():
    use_bench_store()
    return run_table10()


def test_table10_add_pc_cfar_nodes(benchmark):
    result = benchmark.pedantic(collect, rounds=1, iterations=1)

    thpt, lat = result.rows["throughput"], result.rows["latency"]
    thr9, thr10 = thpt["122 nodes"], thpt["138 nodes"]
    lat9, lat10 = lat["122 nodes"], lat["138 nodes"]
    lat_gain = result.rows["latency gain"]["%"]
    print()
    print("Table 10 — 122 nodes vs +16 on pulse compression/CFAR (138 nodes)")
    print(f"throughput: {thr9.measured:.4f} -> {thr10.measured:.4f} CPIs/s "
          f"(paper: {thr9.paper:.4f} -> {thr10.paper:.4f}, i.e. flat)")
    print(f"latency:    {lat9.measured:.4f} -> {lat10.measured:.4f} s "
          f"(paper: {lat9.paper:.4f} -> {lat10.paper:.4f}, "
          f"-{lat_gain.paper:.0f}%)")

    # Throughput flat: the extra nodes feed non-bottleneck tasks.
    assert thr10.measured == pytest.approx(thr9.measured, rel=0.10)
    # Latency improves by a double-digit percentage.
    assert lat_gain.measured > 10.0
    print(f"latency improvement: {lat_gain.measured:.0f}%")

    # The diagnosis the paper gives: the weight tasks are the bottleneck and
    # the fattened tasks idle ("receiving time ... much larger than their
    # computation time").  The table publishes no per-task split; the run
    # behind it is a result-cache hit.
    report = analyze_bottleneck(run_paper_case("table10").metrics)
    print(report.summary())
    assert report.bottleneck_task in ("easy_weight", "hard_weight", "doppler")
    starved = set(report.starved_tasks)
    assert "pulse_compression" in starved or "cfar" in starved

    benchmark.extra_info["throughput_ratio"] = round(
        result.rows["throughput ratio"]["x"].measured, 3
    )
    benchmark.extra_info["latency_gain_pct"] = round(lat_gain.measured, 1)
