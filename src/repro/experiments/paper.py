"""The paper's published numbers, each typed once.

Every value the evaluation section publishes for Tables 2–10 and the
Section 2 baseline lives here; Table 1's flop counts are
:data:`repro.stap.flops.PAPER_TABLE1`.  Values that restate another table
are computed from this module, never retyped:

* :data:`FIG11_COMP_ANCHORS` is Table 7's comp column keyed by each case's
  node count for the task;
* :data:`TABLE9_RECV` pairs Table 7 case 2's recv (118 nodes) with
  Table 9's (122 nodes);
* Table 8's node counts are the case assignments' totals
  (:data:`PAPER_CASES`);
* the Table 9/10 gains are computed from their throughput and latency
  values (:func:`repro.experiments.tables.run_table9` / ``run_table10``).

Times are seconds and throughputs CPIs per second, as in the paper.
``None`` marks a cell the paper leaves blank.
"""

from __future__ import annotations

from repro.core.assignment import (
    CASE1,
    CASE2,
    CASE3,
    CASE2_PLUS_DOPPLER,
    CASE2_PLUS_DOPPLER_PC_CFAR,
    TASK_NAMES,
    Assignment,
)

#: The named assignments of the evaluation section.
PAPER_CASES: dict[str, Assignment] = {
    "case1": CASE1,
    "case2": CASE2,
    "case3": CASE3,
    "table9": CASE2_PLUS_DOPPLER,
    "table10": CASE2_PLUS_DOPPLER_PC_CFAR,
}

#: Table 2: Doppler nodes P0 -> (Doppler send, recv at easy weight 16
#: nodes, hard weight 56, easy BF 16, hard BF 16).
TABLE2 = {
    8: (0.1332, 0.4339, 0.3603, 0.4509, 0.4395),
    16: (0.0679, 0.1780, 0.1048, 0.1955, 0.1843),
    32: (0.0340, 0.0511, 0.0034, 0.0646, 0.0519),
}

#: Table 3: (easy weight P1, easy BF P3) -> easy BF recv.
TABLE3_RECV = {
    (4, 8): 0.1956,
    (8, 8): 0.0883,
    (16, 8): 0.0807,
    (4, 16): 0.2570,
    (8, 16): 0.0905,
    (16, 16): 0.0660,
}

#: Table 4: (hard weight P2, hard BF P4) -> hard BF recv.
TABLE4_RECV = {
    (28, 8): 0.1798,
    (56, 8): 0.1468,
    (112, 8): 0.1398,
    (28, 16): 0.2485,
    (56, 16): 0.0765,
    (112, 16): 0.0543,
}

#: Table 5: (nodes of each BF task, pulse compression P5) -> PC recv.
TABLE5_RECV = {
    (4, 8): 0.5016,
    (8, 8): 0.1379,
    (16, 8): 0.0771,
    (4, 16): 0.5714,
    (8, 16): 0.2090,
    (16, 16): 0.0569,
}

#: Table 6: (pulse compression P5, CFAR P6) -> CFAR recv.
TABLE6_RECV = {
    (4, 4): 0.3351,
    (8, 4): 0.0662,
    (16, 4): 0.0435,
    (4, 8): 0.3348,
    (8, 8): 0.1750,
    (16, 8): 0.1783,
}

#: Table 7: case -> task -> (recv, comp, send).  CFAR, the last task,
#: has no send.
TABLE7 = {
    "case1": {
        "doppler": (0.0055, 0.0874, 0.0348),
        "easy_weight": (0.0493, 0.0913, 0.0003),
        "hard_weight": (0.0555, 0.0831, 0.0005),
        "easy_beamform": (0.0658, 0.0708, 0.0021),
        "hard_beamform": (0.0936, 0.0414, 0.0010),
        "pulse_compression": (0.0551, 0.0776, 0.0028),
        "cfar": (0.0910, 0.0434, None),
    },
    "case2": {
        "doppler": (0.0110, 0.1714, 0.0668),
        "easy_weight": (0.0998, 0.1636, 0.0003),
        "hard_weight": (0.0979, 0.1636, 0.0005),
        "easy_beamform": (0.1302, 0.1267, 0.0036),
        "hard_beamform": (0.1782, 0.0822, 0.0017),
        "pulse_compression": (0.1027, 0.1543, 0.0051),
        "cfar": (0.1742, 0.0864, None),
    },
    "case3": {
        "doppler": (0.0219, 0.3509, 0.1296),
        "easy_weight": (0.1796, 0.3254, 0.0003),
        "hard_weight": (0.1779, 0.3265, 0.0006),
        "easy_beamform": (0.2439, 0.2529, 0.0068),
        "hard_beamform": (0.3370, 0.1636, 0.0032),
        "pulse_compression": (0.1806, 0.3067, 0.0097),
        "cfar": (0.3240, 0.1723, None),
    },
}

#: Table 8: case -> measured ("real") throughput and latency, and the
#: equation (1)/(2) values.
TABLE8 = {
    "case1": {"throughput": 7.2659, "latency": 0.3622,
              "eq_throughput": 7.1019, "eq_latency": 0.5362},
    "case2": {"throughput": 3.7959, "latency": 0.6805,
              "eq_throughput": 3.7919, "eq_latency": 1.0346},
    "case3": {"throughput": 1.9898, "latency": 1.3530,
              "eq_throughput": 1.9791, "eq_latency": 1.9996},
}

#: Table 9: case 2 plus 4 Doppler nodes (122 nodes); ``recv`` is each
#: Doppler successor's recv.
TABLE9 = {
    "throughput": 5.0213,
    "latency": 0.5498,
    "recv": {
        "easy_weight": 0.0519,
        "hard_weight": 0.0486,
        "easy_beamform": 0.0815,
        "hard_beamform": 0.1232,
        "pulse_compression": 0.0519,
        "cfar": 0.1240,
    },
}

#: Table 10: Table 9 plus 16 pulse compression / CFAR nodes (138 nodes).
TABLE10 = {"throughput": 4.9052, "latency": 0.4247}

#: Section 2: the RTMCARM round-robin system on the 25-node ruggedized
#: Paragon ("up to 10 CPIs per second", "a latency of 2.35 seconds").
BASELINE = {"nodes": 25, "throughput": 10.0, "latency": 2.35}

#: Figure 11 anchors: task -> {node count: Table 7 comp at that count}.
FIG11_COMP_ANCHORS = {
    task: {
        PAPER_CASES[case].count_of(task): TABLE7[case][task][1]
        for case in TABLE7
    }
    for task in TASK_NAMES
}

#: Table 9 recv per Doppler successor: task -> (118 nodes, 122 nodes).
TABLE9_RECV = {
    task: (TABLE7["case2"][task][0], recv)
    for task, recv in TABLE9["recv"].items()
}
