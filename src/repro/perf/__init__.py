"""Performance instrumentation for the simulator itself.

The paper's results are virtual-time measurements; this package measures
the *simulator's* wall-clock behaviour — events per second, matching
probes per message, wall-seconds per simulated CPI — so that regressions
in simulation speed are visible and the fast-path optimizations stay
honest.

:mod:`repro.perf.kernels` adds the complementary *numerical* view:
per-kernel host seconds and achieved flops/s of the batched STAP kernels
against the paper's Table 1 operation counts, read from the
``stap_kernel_*`` series of the metrics registry
(:mod:`repro.obs.metrics`), which is where every run counter is kept.

Everything here is opt-in.  The underlying counters
(:attr:`repro.des.Simulator.events_processed`,
:attr:`repro.mpi.World.match_probes`, ...) are plain integer increments
maintained unconditionally on the hot path; collection and reporting
only happen when a caller asks (``STAPPipeline(..., perf=True)``,
``repro-stap case --perf``, or :func:`profile_run`).
"""

from repro.perf.counters import PerfReport, snapshot_counters
from repro.perf.kernels import achieved_vs_table1, kernel_stats, kernel_summary
from repro.perf.profiling import profile_run

__all__ = [
    "PerfReport",
    "snapshot_counters",
    "achieved_vs_table1",
    "kernel_stats",
    "kernel_summary",
    "profile_run",
]
