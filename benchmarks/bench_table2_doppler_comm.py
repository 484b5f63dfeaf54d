"""Table 2: inter-task communication, Doppler -> successor tasks.

Paper rows (time in seconds), with successors at easy weight 16 /
hard weight 56 or 112 / easy BF 16 / hard BF 16:

    P0=8 :  send .1332, recv .36-.45 across successors
    P0=16:  send .0679, recv .10-.20
    P0=32:  send .0340, recv .003-.065

The headline behaviours to reproduce: the Doppler task's visible send time
halves with its node count (less data to collect/reorganize per node), and
successor recv times — dominated by waiting for Doppler's computation —
drop superlinearly as P0 grows.
"""

import pytest

from benchmarks.common import fmt_row, run_assignment
from repro.experiments.paper import TABLE2


def sweep():
    rows = {}
    for p0 in (8, 16, 32):
        result = run_assignment(p0, 16, 56, 16, 16, 16, 16)
        tasks = result.metrics.tasks
        rows[p0] = (
            tasks["doppler"].send,
            tasks["easy_weight"].recv,
            tasks["hard_weight"].recv,
            tasks["easy_beamform"].recv,
            tasks["hard_beamform"].recv,
        )
    return rows


def test_table2_doppler_comm(benchmark):
    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)

    print()
    print("Table 2 — Doppler -> successors communication (send | recvs)")
    header = ["P0", "send", "ew.recv", "hw.recv", "ebf.recv", "hbf.recv"]
    print(fmt_row(*header, widths=[4] + [9] * 5))
    for p0, measured in sorted(rows.items()):
        print(fmt_row(p0, *measured, widths=[4] + [9] * 5))
        print(fmt_row("", *TABLE2[p0], widths=[4] + [9] * 5) + "   (paper)")

    sends = {p0: row[0] for p0, row in rows.items()}
    # Send time scales ~1/P0 (data collected/reorganized per node halves).
    assert sends[8] / sends[16] == pytest.approx(2.0, rel=0.2)
    assert sends[16] / sends[32] == pytest.approx(2.0, rel=0.2)
    # Absolute send times within 35% of the paper's.
    for p0, paper_row in TABLE2.items():
        assert sends[p0] == pytest.approx(paper_row[0], rel=0.35)
    # Successor recv times drop steeply with P0 (they idle on Doppler).
    for successor in range(1, 5):
        recv8 = rows[8][successor]
        recv32 = rows[32][successor]
        assert recv32 < 0.35 * recv8
    benchmark.extra_info["send@8"] = round(sends[8], 4)
    benchmark.extra_info["send@32"] = round(sends[32], 4)
