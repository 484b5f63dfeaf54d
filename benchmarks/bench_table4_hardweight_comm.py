"""Table 4: inter-task communication, hard weight -> hard beamforming.

Paper (seconds), hard BF at 8 or 16 nodes, hard weight at 28/56/112:

                hard BF 8           hard BF 16
    P2=28   send .0007 recv .1798   send .0007 recv .2485
    P2=56   send .0100 recv .1468   send .0065 recv .0765
    P2=112  send .1824 recv .1398   send .0005 recv .0543

As with Table 3, the BF recv column tracks the hard weight task's pace;
more weight nodes means less idle waiting downstream.
"""

import pytest

from benchmarks.common import fmt_row, run_assignment
from repro.experiments.paper import TABLE4_RECV


def sweep():
    rows = {}
    for p4 in (8, 16):
        for p2 in (28, 56, 112):
            result = run_assignment(16, 8, p2, 8, p4, 8, 8)
            tasks = result.metrics.tasks
            rows[(p2, p4)] = (
                tasks["hard_weight"].send,
                tasks["hard_beamform"].recv,
            )
    return rows


def test_table4_hard_weight_comm(benchmark):
    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)

    print()
    print("Table 4 — hard weight -> hard BF (send | recv; paper recv)")
    print(fmt_row("P2", "P4", "send", "recv", "paper recv", widths=[4, 4, 9, 9, 11]))
    for (p2, p4), (send, recv) in sorted(rows.items()):
        print(fmt_row(p2, p4, send, recv, TABLE4_RECV[(p2, p4)],
                      widths=[4, 4, 9, 9, 11]))

    # Weight vectors are small; visible send stays tiny.
    for (_p2, _p4), (send, _recv) in rows.items():
        assert send < 0.02
    # More hard weight nodes -> shorter waits downstream.
    for p4 in (8, 16):
        assert rows[(112, p4)][1] < rows[(28, p4)][1]
    benchmark.extra_info["recv@(28,16)"] = round(rows[(28, 16)][1], 4)
    benchmark.extra_info["recv@(112,16)"] = round(rows[(112, 16)][1], 4)
