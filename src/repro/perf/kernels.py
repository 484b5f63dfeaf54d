"""Per-kernel host seconds and achieved flops of the STAP kernels.

Complements :mod:`repro.perf.counters` (which measures the *simulator*):
this module reads how many host seconds each batched NumPy kernel spent
and what fraction of the paper's analytic operation counts (Table 1,
:mod:`repro.stap.flops`) it sustained.  The kernels record into the
metrics registry (:func:`repro.obs.metrics.record_kernel`, the
``stap_kernel_{calls,seconds,flops}_total{kernel=...}`` series) while it
is enabled; this module only reads a snapshot of it::

    from repro.obs.metrics import metrics_registry
    from repro.perf.kernels import kernel_summary

    with metrics_registry.collect():
        SequentialSTAP(params).process_stream(stream.take(8))
    print(kernel_summary(metrics_registry.snapshot()))

The kernel names match the pipeline task kernels (``doppler``,
``easy_weight``, ``hard_weight``, ``easy_beamform``, ``hard_beamform``,
``pulse_compression``, ``cfar``), so per-kernel achieved flops/s line up
row-for-row with Table 1.
"""

from __future__ import annotations

from typing import Optional

from repro.obs.metrics import MetricsSnapshot, metrics_registry

#: Pipeline-task order of the instrumented kernels.
KERNEL_ORDER = (
    "doppler",
    "easy_weight",
    "hard_weight",
    "easy_beamform",
    "hard_beamform",
    "pulse_compression",
    "cfar",
)


def kernel_stats(snapshot: Optional[MetricsSnapshot] = None) -> dict:
    """``{kernel: {calls, seconds, flops, flops_per_second}}`` of a snapshot
    (default: the live registry's), kernels in pipeline-task order."""
    if snapshot is None:
        snapshot = metrics_registry.snapshot()
    recorded = {
        entry["labels"]["kernel"]
        for entry in snapshot.data["counters"].values()
        if entry["name"] == "stap_kernel_calls_total"
    }
    names = [k for k in KERNEL_ORDER if k in recorded]
    names += sorted(recorded.difference(KERNEL_ORDER))
    stats = {}
    for name in names:
        labels = {"kernel": name}
        seconds = snapshot.value("stap_kernel_seconds_total", labels)
        flops = snapshot.value("stap_kernel_flops_total", labels)
        stats[name] = {
            "calls": int(snapshot.value("stap_kernel_calls_total", labels)),
            "seconds": seconds,
            "flops": flops,
            "flops_per_second": flops / seconds if seconds > 0.0 else 0.0,
        }
    return stats


def kernel_summary(snapshot: Optional[MetricsSnapshot] = None,
                   title: str = "kernel counters") -> str:
    """Printable per-kernel table, pipeline-task order first."""
    lines = [
        f"--- {title}",
        f"{'kernel':<20} {'calls':>7} {'seconds':>10} {'Mflops/s':>10}",
    ]
    calls = seconds = flops = 0.0
    for name, row in kernel_stats(snapshot).items():
        calls += row["calls"]
        seconds += row["seconds"]
        flops += row["flops"]
        lines.append(
            f"{name:<20} {row['calls']:>7d} {row['seconds']:>10.4f}"
            f" {row['flops_per_second'] / 1e6:>10.1f}"
        )
    rate = flops / seconds if seconds > 0.0 else 0.0
    lines.append(
        f"{'total':<20} {int(calls):>7d} {seconds:>10.4f} {rate / 1e6:>10.1f}"
    )
    return "\n".join(lines)


def achieved_vs_table1(
    snapshot: Optional[MetricsSnapshot] = None,
    num_cpis: int = 1,
) -> dict:
    """Per-kernel achieved flops/s against the paper's Table 1 counts.

    Returns ``{kernel: {calls, seconds, flops, flops_per_second,
    paper_flops_per_cpi, paper_fraction}}`` where ``paper_fraction`` is the
    measured modeled flops divided by ``num_cpis`` times the Table 1 entry
    — 1.0 means the run performed exactly the paper's per-CPI operation
    count for that kernel (partial cubes and cold-start CPIs push it
    below 1).  ``snapshot`` defaults to the live registry's.
    """
    from repro.stap.flops import PAPER_TABLE1

    comparison = {}
    for name, entry in kernel_stats(snapshot).items():
        paper = PAPER_TABLE1.get(name)
        entry["paper_flops_per_cpi"] = paper
        entry["paper_fraction"] = (
            entry["flops"] / (paper * num_cpis) if paper and num_cpis else None
        )
        comparison[name] = entry
    return comparison
