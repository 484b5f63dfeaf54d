"""Batch experiment execution: parallel fan-out + content-addressed caching.

The paper's evaluation is a grid of independent full-pipeline simulations.
This package runs such grids as fast as the host allows:

* :class:`SimPoint` — one simulation as a frozen, hashable, picklable value;
* :func:`run_points` — the executor: deterministic input-order results,
  per-point error capture, progress callbacks, a ``jobs`` knob fanning
  cache misses over a process pool;
* :class:`ResultCache` / :func:`cache_key` — the content-addressed result
  store (in-process LRU + optional on-disk layer) keyed on everything the
  simulation depends on;
* :class:`CampaignStore` / :class:`Campaign` / :func:`load_campaign` —
  the durable campaign subsystem (:mod:`repro.exec.campaign`): a shared
  on-disk store with a versioned manifest of declared points plus the
  pull-based pending/complete work queue, so multi-hour sweeps resume
  across processes and runs (``repro-stap campaign run/status/resume``);
* the ``exec_*`` series of the metrics registry
  (:mod:`repro.obs.metrics`), counted while it is enabled: points by
  status, cache hits/misses/stores, probe phases, proving, e.g., that a
  repeated sweep performed zero new simulations.

Quick start::

    from repro import CASE3, STAPParams
    from repro.exec import SimPoint, run_points

    points = [SimPoint(STAPParams.paper(), CASE3.with_counts(cfar=n))
              for n in (4, 8, 16)]
    outcomes = run_points(points, jobs=4)
    for o in outcomes:
        print(o.point.display_label, o.unwrap().metrics.measured_throughput)

Used by :mod:`repro.experiments.sweeps`, ``benchmarks/common.py`` (and
through it every ``bench_table*`` script), the ``repro-stap sweep`` CLI,
and the ``run_measured`` probe phase.
"""

from repro.exec.cache import (
    CACHE_SCHEMA,
    MANIFEST_SCHEMA,
    USE_DEFAULT_CACHE,
    ResultCache,
    cache_key,
    get_default_cache,
    machine_fingerprint,
    point_fingerprint,
    resolve_cache,
    set_default_cache,
)
from repro.exec.executor import (
    PointOutcome,
    execute_point,
    raise_on_failures,
    run_points,
)
from repro.exec.point import PointResult, SimPoint, probe_throughput
from repro.exec.campaign import (
    Campaign,
    CampaignProgress,
    CampaignStore,
    load_campaign,
    point_from_spec,
    point_spec,
)

__all__ = [
    "CACHE_SCHEMA",
    "MANIFEST_SCHEMA",
    "USE_DEFAULT_CACHE",
    "ResultCache",
    "cache_key",
    "get_default_cache",
    "set_default_cache",
    "resolve_cache",
    "machine_fingerprint",
    "point_fingerprint",
    "PointOutcome",
    "PointResult",
    "SimPoint",
    "probe_throughput",
    "execute_point",
    "raise_on_failures",
    "run_points",
    "Campaign",
    "CampaignProgress",
    "CampaignStore",
    "load_campaign",
    "point_spec",
    "point_from_spec",
]
