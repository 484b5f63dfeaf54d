"""repro.obs — end-to-end observability for pipeline simulations.

The paper's entire evaluation is a timing decomposition: per-task
``T_recv`` / ``T_comp`` / ``T_send`` per CPI (Tables 2-10), throughput and
latency from equations (1)-(3).  This package makes those quantities
first-class at run time instead of aggregate-only:

* :class:`TraceSink` collects :class:`Span` trees (one iteration span per
  task rank per CPI with recv/comp/send children), per-message
  :class:`MessageRecord` lifecycles from the MPI matcher, and per-link
  :class:`LinkStats` utilization/contention-wait from the network;
* :func:`chrome_trace` / :func:`write_chrome_trace` export a
  Perfetto-loadable timeline (one track per rank, one per network
  resource);
* :func:`build_report` produces the Table-style bottleneck report.

Everything is **default-off and passive**: a run without a sink takes one
``is None`` check per iteration/message, and an attached sink only reads
timestamps the simulation already produced — modeled times are
bit-identical either way (enforced by the golden-fastpath tests).

Enable via ``STAPPipeline(..., trace=True)`` or the CLI's
``repro-stap case --trace-out timeline.json --report``.

Campaign-scale telemetry lives alongside the single-run trace layer:

* :mod:`repro.obs.metrics` — the process-wide :data:`metrics_registry`
  of :class:`Counter` / :class:`Gauge` / :class:`Histogram` instruments
  with snapshot/merge semantics across executor worker processes,
  JSON/Prometheus export (``--metrics-out`` / ``--metrics-format``);
* :mod:`repro.obs.dashboard` — :class:`SweepDashboard`, a live terminal
  progress callback for sweeps (points/s, cache hit rate, errors, ETA,
  per-stage latency histograms);
* :mod:`repro.obs.progress` — store-backed campaign progress: the same
  dashboard figures (pts/s, completion, ETA, stage histograms) read from
  a :class:`~repro.exec.campaign.CampaignStore` directory on disk, so
  ``repro-stap campaign status`` reports on a campaign this process did
  not start;
* :mod:`repro.obs.regress` — the benchmark/metrics regression gate
  (``python -m repro.obs.regress baseline.json current.json``).
"""

from repro.obs.spans import (
    ITERATION_PHASES,
    LinkStats,
    MessageRecord,
    Span,
    TraceSink,
    bucket_bounds,
    wait_bucket,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    MetricsSnapshot,
    metrics_registry,
    to_prometheus,
    write_snapshot,
)
from repro.obs.export import chrome_trace, write_chrome_trace

#: Exports resolved on first access.  ``report``, ``dashboard`` and
#: ``progress`` import :mod:`repro.core`, whose tasks import the STAP
#: kernels, which record into :mod:`repro.obs.metrics`: importing them
#: here would close that cycle.  ``regress`` stays lazy so that
#: ``python -m repro.obs.regress`` does not find itself already in
#: ``sys.modules`` (runpy's RuntimeWarning).
_LAZY_EXPORTS = {
    "EdgeTraffic": "report",
    "PipelineObsReport": "report",
    "build_report": "report",
    "SweepDashboard": "dashboard",
    "campaign_status": "progress",
    "read_campaign_progress": "progress",
    "RegressionReport": "regress",
    "compare": "regress",
    "compare_files": "regress",
}


def __getattr__(name):
    module = _LAZY_EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    return getattr(import_module(f"{__name__}.{module}"), name)

__all__ = [
    "ITERATION_PHASES",
    "Span",
    "TraceSink",
    "MessageRecord",
    "LinkStats",
    "wait_bucket",
    "bucket_bounds",
    "chrome_trace",
    "write_chrome_trace",
    "build_report",
    "PipelineObsReport",
    "EdgeTraffic",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "MetricsSnapshot",
    "metrics_registry",
    "to_prometheus",
    "write_snapshot",
    "SweepDashboard",
    "campaign_status",
    "read_campaign_progress",
    "RegressionReport",
    "compare",
    "compare_files",
]
