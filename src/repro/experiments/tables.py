"""Runners for the paper's Tables 1 and 7-10 plus the Section 2 baseline.

Each runner returns a :class:`TableResult` pairing measured values with the
published ones from :mod:`repro.experiments.paper`.  The simulated tables
accept ``num_cpis`` (default 25, the paper's run length) and an optional
machine override, and run their assignments through
:func:`run_paper_case`.
"""

from __future__ import annotations

from typing import Optional

from repro.core.assignment import TASK_NAMES
from repro.core.roundrobin import RoundRobinSTAP
from repro.exec import PointResult, SimPoint, execute_point
from repro.experiments import paper
from repro.experiments.paper import PAPER_CASES
from repro.experiments.records import Comparison, TableResult
from repro.machine import Machine
from repro.radar.parameters import STAPParams
from repro.stap import flops as flops_mod


def run_paper_case(
    case: str,
    num_cpis: int = 25,
    machine: Optional[Machine] = None,
    measured: bool = True,
) -> PointResult:
    """Simulate one of :data:`PAPER_CASES` at paper scale.

    The run goes through the executor's process-default result cache, so
    an assignment several tables share (case 2 in Tables 8 and 9, the
    122-node one in Tables 9 and 10) simulates once per process.
    ``measured`` selects the two-phase paced measurement of latency.
    """
    point = SimPoint(
        STAPParams.paper(), PAPER_CASES[case], machine=machine,
        num_cpis=num_cpis, measured=measured,
    )
    return execute_point(point)


def run_table1(params: Optional[STAPParams] = None) -> TableResult:
    """Table 1: analytic flop counts vs the paper's."""
    params = params or STAPParams.paper()
    counts = flops_mod.all_task_flops(params)
    result = TableResult("Table 1", "flops to process one CPI")
    for task, paper_value in flops_mod.PAPER_TABLE1.items():
        result.add(
            task, "flops", Comparison(measured=counts[task], paper=paper_value)
        )
    return result


def run_table7(
    case: str, num_cpis: int = 25, machine: Optional[Machine] = None
) -> TableResult:
    """Table 7: per-task recv/comp/send for one of the three cases."""
    if case not in paper.TABLE7:
        raise KeyError(f"case must be one of {sorted(paper.TABLE7)}, got {case!r}")
    run = run_paper_case(case, num_cpis, machine, measured=False)
    result = TableResult("Table 7", f"per-task timing, {PAPER_CASES[case].name}")
    for task in TASK_NAMES:
        metrics = run.metrics.tasks[task]
        p_recv, p_comp, p_send = paper.TABLE7[case][task]
        result.add(task, "recv", Comparison(metrics.recv, p_recv, " s"))
        result.add(task, "comp", Comparison(metrics.comp, p_comp, " s"))
        result.add(task, "send", Comparison(metrics.send, p_send, " s"))
    result.add(
        "throughput", "CPIs/s",
        Comparison(
            run.metrics.measured_throughput, paper.TABLE8[case]["throughput"]
        ),
    )
    return result


def run_table8(
    num_cpis: int = 25,
    machine: Optional[Machine] = None,
    cases=("case1", "case2", "case3"),
) -> TableResult:
    """Table 8: throughput and latency across the machine sizes."""
    result = TableResult("Table 8", "throughput and latency vs machine size")
    for case in cases:
        metrics = run_paper_case(case, num_cpis, machine).metrics
        published = paper.TABLE8[case]
        for column, value, unit in (
            ("throughput", metrics.measured_throughput, " CPIs/s"),
            ("latency", metrics.measured_latency, " s"),
            ("eq_throughput", metrics.equation_throughput, " CPIs/s"),
            ("eq_latency", metrics.equation_latency, " s"),
        ):
            result.add(case, column, Comparison(value, published[column], unit))
    result.notes.append("equation (2) latency is the paper's upper bound")
    return result


def _what_if(table_id: str, title: str, runs: dict) -> TableResult:
    """Throughput and latency rows with one column per run.

    ``runs`` maps a column label to ``(PointResult, published values)``.
    """
    result = TableResult(table_id, title)
    for quantity, unit in (("throughput", " CPIs/s"), ("latency", " s")):
        for label, (run, published) in runs.items():
            measured = getattr(run.metrics, f"measured_{quantity}")
            result.add(
                quantity, label, Comparison(measured, published[quantity], unit)
            )
    return result


def _change(cells: dict, change) -> Comparison:
    """``change(before, after)`` over a two-column row, measured and paper."""
    before, after = cells.values()
    return Comparison(
        change(before.measured, after.measured),
        change(before.paper, after.paper),
    )


def _gain_pct(before: float, after: float) -> float:
    return 100 * (after / before - 1)


def _cut_pct(before: float, after: float) -> float:
    return 100 * (1 - after / before)


def run_table9(num_cpis: int = 25, machine: Optional[Machine] = None) -> TableResult:
    """Table 9: +4 Doppler nodes on case 2."""
    before = run_paper_case("case2", num_cpis, machine)
    after = run_paper_case("table9", num_cpis, machine)
    result = _what_if(
        "Table 9", "case 2 + 4 Doppler nodes (118 -> 122)",
        {"118 nodes": (before, paper.TABLE8["case2"]),
         "122 nodes": (after, paper.TABLE9)},
    )
    result.add("throughput gain", "%", _change(result.rows["throughput"], _gain_pct))
    result.add("latency gain", "%", _change(result.rows["latency"], _cut_pct))
    for task, (paper_before, paper_after) in paper.TABLE9_RECV.items():
        recv_before = before.metrics.tasks[task].recv
        recv_after = after.metrics.tasks[task].recv
        result.add(task, "recv (118)", Comparison(recv_before, paper_before, " s"))
        result.add(task, "recv (122)", Comparison(recv_after, paper_after, " s"))
        result.add(
            task, "recv delta", Comparison(recv_after - recv_before, None, " s")
        )
    result.notes.append(
        "secondary effect: successor recv deltas should be negative"
    )
    return result


def run_table10(num_cpis: int = 25, machine: Optional[Machine] = None) -> TableResult:
    """Table 10: +16 pulse compression / CFAR nodes on the Table 9 config."""
    result = _what_if(
        "Table 10", "+16 PC/CFAR nodes (122 -> 138)",
        {"122 nodes": (run_paper_case("table9", num_cpis, machine), paper.TABLE9),
         "138 nodes": (run_paper_case("table10", num_cpis, machine),
                       paper.TABLE10)},
    )
    result.add(
        "throughput ratio", "x",
        _change(result.rows["throughput"], lambda before, after: after / before),
    )
    result.add("latency gain", "%", _change(result.rows["latency"], _cut_pct))
    result.notes.append("throughput flat: the weight tasks are the bottleneck")
    return result


def run_baseline(
    num_cpis: int = 50, num_nodes: int = paper.BASELINE["nodes"]
) -> TableResult:
    """Section 2: the RTMCARM round-robin system."""
    run = RoundRobinSTAP(STAPParams.paper(), num_nodes=num_nodes).run(num_cpis)
    result = TableResult("Section 2", f"round-robin baseline, {num_nodes} nodes")
    published = paper.BASELINE
    result.add("throughput", "CPIs/s",
               Comparison(run.throughput, published["throughput"]))
    result.add("latency", "s", Comparison(run.latency, published["latency"]))
    return result


#: ``repro-stap table --id`` -> runner.  The runners keep their own
#: ``num_cpis`` default unless the caller passes one.
TABLE_RUNNERS = {
    "1": run_table1,
    "7": run_table7,
    "8": run_table8,
    "9": run_table9,
    "10": run_table10,
    "baseline": run_baseline,
}
