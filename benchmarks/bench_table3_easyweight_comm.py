"""Table 3: inter-task communication, easy weight -> easy beamforming.

Paper (seconds), with easy BF at 8 or 16 nodes and easy weight at 4/8/16:

                easy BF 8          easy BF 16
    P1=4    send .0005 recv .1956   send .0007 recv .2570
    P1=8    send .0088 recv .0883   send .0004 recv .0905
    P1=16   send .0768 recv .0807   send .0003 recv .0660

Weight vectors are tiny (tens of KiB), so the send column is negligible;
the BF recv column is dominated by *waiting* for the easy weight task's
computation, so it shrinks as P1 grows.
"""

import pytest

from benchmarks.common import fmt_row, run_assignment
from repro.experiments.paper import TABLE3_RECV


def sweep():
    rows = {}
    for p3 in (8, 16):
        for p1 in (4, 8, 16):
            result = run_assignment(16, p1, 56, p3, 14, 8, 8)
            tasks = result.metrics.tasks
            rows[(p1, p3)] = (
                tasks["easy_weight"].send,
                tasks["easy_beamform"].recv,
            )
    return rows


def test_table3_easy_weight_comm(benchmark):
    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)

    print()
    print("Table 3 — easy weight -> easy BF (send | recv; paper in parens)")
    print(fmt_row("P1", "P3", "send", "recv", "paper recv", widths=[4, 4, 9, 9, 11]))
    for (p1, p3), (send, recv) in sorted(rows.items()):
        print(fmt_row(p1, p3, send, recv, TABLE3_RECV[(p1, p3)],
                      widths=[4, 4, 9, 9, 11]))

    # Weight sends are negligible next to the Doppler cube redistribution.
    for (p1, p3), (send, _recv) in rows.items():
        assert send < 0.02
    # More weight nodes -> less waiting at the consumer, for either P3.
    for p3 in (8, 16):
        assert rows[(16, p3)][1] < rows[(4, p3)][1]
    benchmark.extra_info["recv@(4,8)"] = round(rows[(4, 8)][1], 4)
    benchmark.extra_info["recv@(16,16)"] = round(rows[(16, 16)][1], 4)
