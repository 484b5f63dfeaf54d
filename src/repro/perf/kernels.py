"""Per-kernel wall-time and achieved-flops counters for the STAP kernels.

Complements :mod:`repro.perf.counters` (which measures the *simulator*):
this module measures the *numerical kernels themselves* — how many host
seconds each batched NumPy kernel spends per run, and what fraction of the
paper's analytic operation counts (Table 1, :mod:`repro.stap.flops`) it
sustains.  The before/after evidence for the batched-kernel work lives in
``benchmarks/bench_kernels.py``, which drives these counters.

Collection is opt-in and off by default: every instrumented kernel pays
one attribute check (``if not counters.enabled``) when disabled, so the
functional hot path stays clean.  Enable around a region of interest::

    from repro.perf import kernel_counters

    with kernel_counters.collect():
        SequentialSTAP(params).process_stream(stream.take(8))
    print(kernel_counters.summary())

The kernel names match the pipeline task kernels (``doppler``,
``easy_weight``, ``hard_weight``, ``easy_beamform``, ``hard_beamform``,
``pulse_compression``, ``cfar``), so per-kernel achieved flops/s line up
row-for-row with Table 1.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter
from typing import Dict, Optional


@dataclass
class KernelStats:
    """Accumulated cost of one kernel: calls, host seconds, modeled flops.

    ``flops`` uses the analytic per-task counts of :mod:`repro.stap.flops`
    scaled by each call's share of the cube (the instrumented kernels know
    their block sizes) — i.e. *useful* operations, so ``flops_per_second``
    is achieved throughput against the paper's own accounting, not a count
    of machine instructions.
    """

    calls: int = 0
    seconds: float = 0.0
    flops: float = 0.0

    @property
    def flops_per_second(self) -> float:
        """Achieved throughput in modeled flops per host second."""
        return self.flops / self.seconds if self.seconds > 0.0 else 0.0

    def to_dict(self) -> dict:
        return {
            "calls": self.calls,
            "seconds": self.seconds,
            "flops": self.flops,
            "flops_per_second": self.flops_per_second,
        }


class KernelCounters:
    """Registry of :class:`KernelStats`, keyed by kernel name.

    A module singleton (:data:`kernel_counters`) is shared by all
    instrumented kernels; :meth:`timed` is the single hot-path entry
    point.  Each kernel records exactly once per call, from the thread
    that called it, after any split across kernel threads
    (:mod:`repro.stap.threads`) has finished — so a split call is one
    entry whose seconds are the wall time of the whole call.  Kernels may
    be called from several threads at once (the sequential reference runs
    its detection and weight branches side by side), so recording is
    locked; calls, flops and the per-kernel seconds do not depend on the
    overlap, but the seconds of overlapping kernels sum to more than the
    region's wall time.
    """

    def __init__(self) -> None:
        self.enabled: bool = False
        self._stats: Dict[str, KernelStats] = {}
        self._lock = threading.Lock()

    # -- lifecycle ----------------------------------------------------------------
    def enable(self, reset: bool = True) -> None:
        if reset:
            self.reset()
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def reset(self) -> None:
        self._stats.clear()

    @contextmanager
    def collect(self, reset: bool = True):
        """Enable collection for a ``with`` block; restores the prior state."""
        was_enabled = self.enabled
        self.enable(reset=reset)
        try:
            yield self
        finally:
            self.enabled = was_enabled

    # -- recording ----------------------------------------------------------------
    @contextmanager
    def timed(self, kernel: str, flops: float = 0.0):
        """Time a kernel invocation and credit it with ``flops`` operations.

        When disabled this is a no-op beyond the generator machinery; the
        instrumented kernels guard even that with ``if counters.enabled``
        so the disabled cost is one attribute check.
        """
        if not self.enabled:
            yield
            return
        start = perf_counter()
        try:
            yield
        finally:
            self.record(kernel, perf_counter() - start, flops)

    def record(self, kernel: str, seconds: float, flops: float = 0.0) -> None:
        """Credit one call directly (for callers that time themselves)."""
        with self._lock:
            stats = self._stats.get(kernel)
            if stats is None:
                stats = self._stats[kernel] = KernelStats()
            stats.calls += 1
            stats.seconds += seconds
            stats.flops += flops

    # -- output -------------------------------------------------------------------
    def stats(self) -> Dict[str, KernelStats]:
        """Live view of the accumulated per-kernel statistics."""
        return self._stats

    def to_dict(self) -> dict:
        """JSON-serializable per-kernel ``{calls, seconds, flops, flops/s}``."""
        return {name: stats.to_dict() for name, stats in sorted(self._stats.items())}

    def summary(self, title: str = "kernel counters") -> str:
        """Printable per-kernel table, pipeline-task order first."""
        order = [
            "doppler",
            "easy_weight",
            "hard_weight",
            "easy_beamform",
            "hard_beamform",
            "pulse_compression",
            "cfar",
        ]
        names = [k for k in order if k in self._stats]
        names += [k for k in sorted(self._stats) if k not in order]
        lines = [
            f"--- {title}",
            f"{'kernel':<20} {'calls':>7} {'seconds':>10} {'Mflops/s':>10}",
        ]
        total = KernelStats()
        for name in names:
            stats = self._stats[name]
            total.calls += stats.calls
            total.seconds += stats.seconds
            total.flops += stats.flops
            lines.append(
                f"{name:<20} {stats.calls:>7d} {stats.seconds:>10.4f}"
                f" {stats.flops_per_second / 1e6:>10.1f}"
            )
        lines.append(
            f"{'total':<20} {total.calls:>7d} {total.seconds:>10.4f}"
            f" {total.flops_per_second / 1e6:>10.1f}"
        )
        return "\n".join(lines)


#: The module singleton the instrumented STAP kernels report into.
kernel_counters = KernelCounters()


def achieved_vs_table1(
    counters: Optional[KernelCounters] = None,
    num_cpis: int = 1,
) -> dict:
    """Per-kernel achieved flops/s against the paper's Table 1 counts.

    Returns ``{kernel: {seconds, flops, flops_per_second, paper_flops_per_cpi,
    paper_fraction}}`` where ``paper_fraction`` is the measured modeled
    flops divided by ``num_cpis`` times the Table 1 entry — 1.0 means the
    run performed exactly the paper's per-CPI operation count for that
    kernel (partial cubes and cold-start CPIs push it below 1).
    """
    from repro.stap.flops import PAPER_TABLE1

    counters = kernel_counters if counters is None else counters
    comparison = {}
    for name, stats in counters.stats().items():
        paper = PAPER_TABLE1.get(name)
        entry = stats.to_dict()
        entry["paper_flops_per_cpi"] = paper
        entry["paper_fraction"] = (
            stats.flops / (paper * num_cpis) if paper and num_cpis else None
        )
        comparison[name] = entry
    return comparison
