"""Table 5: inter-task communication, beamforming -> pulse compression.

Paper (seconds), pulse compression at 8 or 16 nodes, each BF at 4/8/16:

    easy BF 4:  recv .5016 (PC 8) / .5714 (PC 16)
    easy BF 8:  recv .1379 / .2090
    easy BF 16: recv .0771 / .0569  (sends always < .01 except the
                                     unbalanced 16->8 case)

Both BF tasks and PC partition along Doppler bins, so there is no
reorganization; the recv column again reflects waiting on the producers.
"""

import pytest

from benchmarks.common import fmt_row, run_assignment
from repro.experiments.paper import TABLE5_RECV


def sweep():
    rows = {}
    for p5 in (8, 16):
        for bf in (4, 8, 16):
            # Scale both BF tasks together, as the paper's table implies
            # (easy and hard BF rows share the same PC recv).  The other
            # tasks are kept generously provisioned so the measured pair is
            # not masked by an unrelated bottleneck.
            result = run_assignment(32, 16, 112, bf, bf, p5, 8)
            tasks = result.metrics.tasks
            rows[(bf, p5)] = (
                tasks["easy_beamform"].send,
                tasks["hard_beamform"].send,
                tasks["pulse_compression"].recv,
            )
    return rows


def test_table5_bf_pc_comm(benchmark):
    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)

    print()
    print("Table 5 — BF -> pulse compression (sends | PC recv; paper recv)")
    print(fmt_row("BF", "P5", "ebf.send", "hbf.send", "pc.recv", "paper",
                  widths=[4, 4, 9, 9, 9, 9]))
    for (bf, p5), (esend, hsend, recv) in sorted(rows.items()):
        print(fmt_row(bf, p5, esend, hsend, recv, TABLE5_RECV[(bf, p5)],
                      widths=[4, 4, 9, 9, 9, 9]))

    for (_bf, _p5), (esend, hsend, _recv) in rows.items():
        assert esend < 0.05 and hsend < 0.05  # aligned bins: cheap sends
    for p5 in (8, 16):
        # Faster producers -> much less PC waiting (paper: .50 -> .08).
        assert rows[(16, p5)][2] < 0.5 * rows[(4, p5)][2]
    benchmark.extra_info["pc.recv@(4,8)"] = round(rows[(4, 8)][2], 4)
    benchmark.extra_info["pc.recv@(16,16)"] = round(rows[(16, 16)][2], 4)
