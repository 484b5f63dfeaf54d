"""Count executor, result-cache and probe events through the metrics registry."""

from __future__ import annotations

from contextlib import contextmanager

from repro.obs.metrics import metrics_registry


def exec_counts(snapshot) -> dict:
    """The executor, cache and probe series of a snapshot, one key each.

    ``simulations_run`` counts every simulation: simulated points plus
    simulated probe phases, wherever they ran.
    """
    def count(name, **labels):
        return int(snapshot.value(name, labels or None))

    simulated = count("exec_points_total", status="simulated")
    probes = count("exec_probes_total", source="simulated")
    return {
        "points_submitted": int(snapshot.total("exec_points_total")),
        "points_simulated": simulated,
        "probe_simulations": probes,
        "simulations_run": simulated + probes,
        "point_errors": count("exec_points_total", status="error"),
        "progress_errors": count("exec_progress_errors_total"),
        "cache_hits_memory": count("exec_cache_hits_total", layer="memory"),
        "cache_hits_disk": count("exec_cache_hits_total", layer="disk"),
        "cache_misses": count("exec_cache_misses_total"),
        "cache_stores": count("exec_cache_stores_total"),
        "cache_corrupt": count("exec_cache_corrupt_total"),
        "probe_cache_hits": count("exec_probes_total", source="cache"),
    }


@contextmanager
def counting():
    """Collect the registry for a ``with`` block; the yielded dict holds
    :func:`exec_counts` of what the block recorded once it exits."""
    counts: dict = {}
    try:
        with metrics_registry.collect():
            yield counts
        counts.update(exec_counts(metrics_registry.snapshot()))
    finally:
        metrics_registry.reset()
