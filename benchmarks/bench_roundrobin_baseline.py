"""Section 2 baseline: the RTMCARM round-robin system.

Paper: the 25-node ruggedized Paragon "processed up to 10 CPIs per second
(throughput) and achieved a latency of 2.35 seconds per CPI", with no
inter-node communication — throughput scales with nodes, latency does not.
"""

import pytest

from repro import RoundRobinSTAP, STAPParams
from repro.experiments.paper import BASELINE


def collect():
    params = STAPParams.paper()
    return {
        nodes: RoundRobinSTAP(params, num_nodes=nodes).run(num_cpis=50)
        for nodes in (5, 10, 25)
    }


def test_roundrobin_baseline(benchmark):
    results = benchmark.pedantic(collect, rounds=1, iterations=1)

    print()
    print("Section 2 baseline — round-robin on the ruggedized Paragon")
    print(f"{'nodes':>6} {'throughput':>12} {'latency':>10}")
    for nodes, result in sorted(results.items()):
        print(f"{nodes:>6} {result.throughput:>9.2f}/s {result.latency:>9.3f} s")
    print(f"paper: up to {BASELINE['throughput']:g} CPIs/s, latency "
          f"{BASELINE['latency']:g} s on {BASELINE['nodes']} nodes")

    full = results[25]
    # "up to 10 CPIs per second"
    assert full.throughput == pytest.approx(BASELINE["throughput"], rel=0.15)
    # "a latency of 2.35 seconds per CPI"
    assert full.latency == pytest.approx(BASELINE["latency"], rel=0.15)
    # Latency does not improve with more nodes...
    assert results[25].latency == pytest.approx(results[5].latency, rel=0.05)
    # ...but throughput scales linearly.
    assert results[25].throughput / results[5].throughput == pytest.approx(5.0, rel=0.2)

    benchmark.extra_info["throughput@25"] = round(full.throughput, 2)
    benchmark.extra_info["latency@25"] = round(full.latency, 3)
