#!/usr/bin/env python
"""Run the parallel pipelined STAP on the simulated AFRL Paragon.

Reproduces the paper's Table 7: the three processor assignments (236, 118
and 59 nodes), each printing the per-task recv/comp/send decomposition and
the measured throughput and latency.  The simulation is the timing model —
calibrated per-kernel compute rates plus the 2-D-mesh network model — so
each case takes a few seconds of wall clock.

Run:  python examples/pipeline_on_paragon.py [--quick]
"""

import argparse

from repro import STAPParams, STAPPipeline
from repro.experiments.paper import PAPER_CASES, TABLE8


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true",
        help="run only case 3 (59 nodes) for a fast demo",
    )
    parser.add_argument("--cpis", type=int, default=25, help="CPIs per run")
    args = parser.parse_args()

    params = STAPParams.paper()
    keys = ("case3",) if args.quick else ("case3", "case2", "case1")
    for key in keys:
        case = PAPER_CASES[key]
        result = STAPPipeline(params, case, num_cpis=args.cpis).run_measured()
        print(result.metrics.table(f"=== {case.name} ==="))
        published = TABLE8[key]
        print(f"paper (Table 8 real): throughput {published['throughput']:.4f} "
              f"CPIs/s, latency {published['latency']:.4f} s")
        print(f"network: {result.network_messages} messages, "
              f"{result.network_bytes / 2**20:.1f} MiB per run")
        print()


if __name__ == "__main__":
    main()
