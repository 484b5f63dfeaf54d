"""Table 6: inter-task communication, pulse compression -> CFAR.

Paper (seconds), CFAR at 4 or 8 nodes, pulse compression at 4/8/16:

    P5=4    send .0099 recv .3351 (C=4)  |  send .0098 recv .3348 (C=8)
    P5=8    send .0053 recv .0662        |  send .0051 recv .1750
    P5=16   send .1256 recv .0435        |  send .0028 recv .1783

The pipeline's lightest edge (real power data, half the bytes of complex);
CFAR's recv is almost entirely waiting on pulse compression.
"""

import pytest

from benchmarks.common import fmt_row, run_assignment
from repro.experiments.paper import TABLE6_RECV


def sweep():
    rows = {}
    for p6 in (4, 8):
        for p5 in (4, 8, 16):
            # Upstream tasks generously provisioned so the PC -> CFAR pair
            # is the binding stage being measured.
            result = run_assignment(32, 16, 112, 16, 28, p5, p6)
            tasks = result.metrics.tasks
            rows[(p5, p6)] = (
                tasks["pulse_compression"].send,
                tasks["cfar"].recv,
            )
    return rows


def test_table6_pc_cfar_comm(benchmark):
    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)

    print()
    print("Table 6 — pulse compression -> CFAR (send | recv; paper recv)")
    print(fmt_row("P5", "P6", "send", "recv", "paper recv", widths=[4, 4, 9, 9, 11]))
    for (p5, p6), (send, recv) in sorted(rows.items()):
        print(fmt_row(p5, p6, send, recv, TABLE6_RECV[(p5, p6)],
                      widths=[4, 4, 9, 9, 11]))

    for (p5, p6), (send, _recv) in rows.items():
        if p5 <= 2 * p6:
            assert send < 0.05
    # The unbalanced sender-heavy case: visible send time is inflated by
    # waiting for the slower receiver ("when the number of nodes is
    # unbalanced ... the communication performance is not very good";
    # the paper's own (16, 4) cell shows send .1256 for the same reason).
    assert rows[(16, 4)][0] > rows[(8, 4)][0]
    for p6 in (4, 8):
        # CFAR waits far less once PC keeps up (paper: .335 -> .044).
        assert rows[(16, p6)][1] < 0.5 * rows[(4, p6)][1]
    benchmark.extra_info["cfar.recv@(4,4)"] = round(rows[(4, 4)][1], 4)
    benchmark.extra_info["cfar.recv@(16,4)"] = round(rows[(16, 4)][1], 4)
