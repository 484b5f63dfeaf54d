"""Shared infrastructure for the paper-reproduction benchmarks.

Every benchmark module regenerates one table or figure of the paper's
evaluation at the paper's exact parameters (K=512, J=16, N=128, M=6,
25 CPIs, warm-up/cool-down excluded) on the simulated AFRL Paragon, prints
the paper-vs-measured rows, and records headline numbers in the
pytest-benchmark ``extra_info`` so they land in the benchmark report.

Full-pipeline simulations at 118-236 ranks take seconds each, so results
are memoized across benchmark modules through the content-addressed
result cache of :mod:`repro.exec` (Table 2's 8-node column is Table 7
case 3's Doppler count, etc.) — the cache keys on node counts, not
assignment names, so differently-named but physically identical
configurations share one simulation.

The paper's published values come from :mod:`repro.experiments.paper`;
Tables 7–10 run through the :mod:`repro.experiments` runners, and the
Tables 2–6 and Figure 11 sweeps through :func:`run_assignment`.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from repro import Assignment, STAPParams
from repro.exec import (
    USE_DEFAULT_CACHE,
    PointResult,
    SimPoint,
    execute_point,
    set_default_cache,
)

#: CPIs per measured run, as in the paper ("A total of 25 CPI complex data
#: cubes were generated as inputs").
NUM_CPIS = 25

#: Environment variable naming a durable campaign directory.  When set,
#: every benchmark simulation declares into and publishes through one
#: shared :class:`~repro.exec.campaign.CampaignStore` there, so the whole
#: Table 2–10 benchmark suite becomes a single resumable campaign:
#: interrupt it at any point, rerun, and completed points are served from
#: the store (``repro-stap campaign status <dir>`` shows progress from a
#: second terminal).  See EXPERIMENTS.md for the recipe.
CAMPAIGN_DIR_ENV = "REPRO_CAMPAIGN_DIR"

_campaign_store = None


def bench_store():
    """The result store benchmarks run through.

    The process-default cache normally; a durable campaign store rooted
    at ``$REPRO_CAMPAIGN_DIR`` when that is set.
    """
    global _campaign_store
    directory = os.environ.get(CAMPAIGN_DIR_ENV)
    if not directory:
        return USE_DEFAULT_CACHE
    if _campaign_store is None or _campaign_store.root != Path(directory):
        from repro.exec.campaign import CampaignStore

        _campaign_store = CampaignStore(directory, name="bench")
    return _campaign_store


def use_bench_store() -> None:
    """Make :func:`bench_store` the process-default result cache.

    The paper-table runners of :mod:`repro.experiments` take no cache
    argument; they read the process default, which is how a campaign
    directory reaches them.
    """
    store = bench_store()
    if store is not USE_DEFAULT_CACHE:
        set_default_cache(store)


def paper_params() -> STAPParams:
    return STAPParams.paper()


def run_assignment(
    doppler: int,
    easy_weight: int,
    hard_weight: int,
    easy_bf: int,
    hard_bf: int,
    pc: int,
    cfar: int,
) -> PointResult:
    """Simulate one assignment at paper scale (result-cached)."""
    counts = (doppler, easy_weight, hard_weight, easy_bf, hard_bf, pc, cfar)
    point = SimPoint(
        paper_params(),
        Assignment(*counts, name=f"bench{counts}"),
        num_cpis=NUM_CPIS,
    )
    return execute_point(point, cache=bench_store())


def merge_results(path, updates: dict, tolerance: float = 0.10) -> dict:
    """Merge one section into a ``BENCH_*.json`` file, gating the update.

    When the file already holds a previous generation, the merged document
    is diffed against it with :mod:`repro.obs.regress` and the pass/fail
    delta table printed, so every benchmark refresh shows at a glance what
    moved and whether it moved the wrong way.  The gate prints rather than
    raises — wall-clock noise on shared hosts is for the human refreshing
    the file to judge (``python -m repro.obs.regress old new`` gives the
    same table with a hard exit code for CI).
    """
    path = Path(path)
    existing = {}
    if path.exists():
        try:
            existing = json.loads(path.read_text())
        except ValueError:
            existing = {}
    merged = {**existing, **updates}
    if existing:
        from repro.obs.regress import compare

        report = compare(existing, merged, tolerance=tolerance)
        print()
        print(f"--- regression gate: {path.name} "
              f"(tolerance {tolerance * 100:.0f}%)")
        print(report.table())
    path.write_text(json.dumps(merged, indent=2) + "\n")
    return merged


def error_pct(measured: float, paper: float) -> float:
    """Signed percent deviation from the paper's value."""
    return 100.0 * (measured - paper) / paper


def fmt_row(*columns, widths=None) -> str:
    widths = widths or [14] * len(columns)
    parts = []
    for value, width in zip(columns, widths):
        if isinstance(value, float):
            parts.append(f"{value:>{width}.4f}")
        else:
            parts.append(f"{str(value):>{width}}")
    return " ".join(parts)
