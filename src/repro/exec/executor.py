"""The batch experiment executor: fan independent points out over workers.

The paper's evaluation is a grid of *independent* full-pipeline runs
(Tables 7–10, the Figure 11 series, scalability curves).  The executor
takes a list of :class:`~repro.exec.point.SimPoint` and returns one
:class:`PointOutcome` per point **in input order**, regardless of
completion order, so ``jobs`` never changes what a caller sees:

* ``jobs=1`` runs in-process, in order — bit-identical to the historical
  serial loops;
* ``jobs>1`` fans cache misses out over a ``ProcessPoolExecutor``;
  simulations are deterministic, so parallel results are byte-equal to
  serial ones (enforced by the golden tests in ``tests/exec/``);
* every point is first looked up in the result cache, and fresh results
  are stored back, so a repeated sweep performs zero new simulations.

One failed point does not kill the batch: its traceback is captured on
the outcome (``outcome.error``) and the remaining points still run.
Progress callbacks fire once per completed point (cache hits included).
While the metrics registry (:mod:`repro.obs.metrics`) is enabled, every
completed point counts once in ``exec_points_total{status}``, whether it
ran here or in a pool worker.
"""

from __future__ import annotations

import time
import traceback
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

from repro.errors import ExecutionError
from repro.exec.cache import (
    USE_DEFAULT_CACHE,
    ResultCache,
    cache_key,
    resolve_cache,
)
from repro.exec.point import PointResult, SimPoint
from repro.obs.metrics import metrics_registry

#: ``progress(completed_count, total, outcome)`` — called once per point,
#: in completion order (which is input order for cache hits and ``jobs=1``).
ProgressCallback = Callable[[int, int, "PointOutcome"], None]


@dataclass
class PointOutcome:
    """What happened to one submitted point."""

    index: int
    point: SimPoint
    result: Optional[PointResult] = None
    #: Formatted traceback of the failure, if any.
    error: Optional[str] = None
    #: True when the result came from the cache (no simulation ran).
    cached: bool = False
    #: Host seconds spent simulating this point (0.0 for cache hits).
    elapsed: float = 0.0
    #: Per-point :class:`~repro.obs.metrics.MetricsSnapshot` dict shipped
    #: back by a pool worker (None for cache hits, serial runs — which
    #: record straight into the parent registry — and metrics-off runs).
    metrics: Optional[dict] = None

    @property
    def ok(self) -> bool:
        return self.error is None

    def unwrap(self) -> PointResult:
        """The result, or :class:`~repro.errors.ExecutionError` on failure."""
        if self.error is not None:
            raise ExecutionError(
                f"point {self.point.display_label!r} failed:\n{self.error}"
            )
        assert self.result is not None
        return self.result


def _warm_start(params_batch: Sequence) -> None:
    """Pool initializer: pay per-process import and plan costs up front.

    A cold pool worker spends its first point importing numpy/scipy and
    building the kernel plan before any simulation runs; with many small
    points that startup tax dominates.  Warming at pool creation moves it
    off the measured path (``benchmarks/bench_simspeed.py`` records the
    delta).  Only default-steering plans are content-addressable by
    params, which is exactly what :func:`repro.stap.plan.default_plan`
    caches — points with explicit steering simply skip the warm plan.

    The pool's workers already occupy the cores, so each runs its
    kernels on one thread (:mod:`repro.stap.threads`).
    """
    import numpy  # noqa: F401  (resident for every kernel call)
    import scipy.linalg  # noqa: F401  (the LSQ solver's import)

    from repro.stap.plan import default_plan
    from repro.stap.threads import set_kernel_threads

    set_kernel_threads(1)

    for params in params_batch:
        try:
            default_plan(params)
        except Exception:  # pragma: no cover - warming must never kill a pool
            pass


def _run_point(index: int, point: SimPoint, collect_metrics: bool = False):
    """Worker body: never raises, so one bad point cannot kill the pool.

    With ``collect_metrics`` the worker's (forked, possibly dirty)
    registry is reset and enabled for exactly this point, and the frozen
    snapshot rides home as the fifth tuple element for the parent to
    merge — giving ``jobs>1`` the same campaign-wide totals a serial run
    records directly.
    """
    if collect_metrics:
        metrics_registry.enable(reset=True)
    start = time.perf_counter()
    try:
        result = point.run()
        error = None
    except Exception:
        result, error = None, traceback.format_exc()
    elapsed = time.perf_counter() - start
    snapshot = None
    if collect_metrics:
        snapshot = metrics_registry.snapshot().to_dict()
        metrics_registry.disable()
    return index, result, error, elapsed, snapshot


def run_points(
    points: Iterable[SimPoint],
    jobs: int = 1,
    cache=USE_DEFAULT_CACHE,
    progress: Optional[ProgressCallback] = None,
) -> list[PointOutcome]:
    """Execute a batch of independent points; outcomes in input order.

    ``cache`` is the process default unless given explicitly; pass
    ``None`` to disable caching entirely.

    A call is a one-shot campaign: the points and the resolved cache form
    an ephemeral :class:`~repro.exec.campaign.Campaign` whose pull-based
    queue :func:`_execute` drains.  Bind the same points to a durable
    :class:`~repro.exec.campaign.CampaignStore` instead and the identical
    engine becomes a resumable, multi-process sweep.
    """
    from repro.exec.campaign import Campaign

    return Campaign(list(points), store=resolve_cache(cache)).run(
        jobs=jobs, progress=progress
    )


def _execute(
    points: Sequence[SimPoint],
    jobs: int,
    store: Optional[ResultCache],
    progress: Optional[ProgressCallback] = None,
) -> list[PointOutcome]:
    """The executor engine: drain one campaign's queue over ``jobs`` workers.

    ``store`` is any already-resolved result store (a plain
    :class:`ResultCache`, a :class:`~repro.exec.campaign.CampaignStore`,
    or ``None``); each point is first pulled from it (complete → served,
    no simulation) and fresh results are atomically published back.
    """
    points = list(points)
    total = len(points)
    outcomes: list[Optional[PointOutcome]] = [None] * total
    completed = 0
    metered = metrics_registry.enabled

    def note(outcome: PointOutcome) -> None:
        nonlocal completed
        outcomes[outcome.index] = outcome
        completed += 1
        if outcome.error is not None:
            status = "error"
        elif outcome.cached:
            status = "cached"
        else:
            status = "simulated"
        if metered:
            metrics_registry.counter(
                "exec_points_total", "points completed by the batch executor",
                labels={"status": status},
            ).inc()
            if status == "simulated":
                metrics_registry.histogram(
                    "exec_point_seconds", "host seconds per simulated point",
                ).observe(outcome.elapsed)
        if progress is not None:
            # Containment: a flaky progress consumer (a dashboard writing
            # to a closed terminal, say) must not kill a multi-hour sweep.
            try:
                progress(completed, total, outcome)
            except Exception:
                if metered:
                    metrics_registry.counter(
                        "exec_progress_errors_total",
                        "progress callbacks that raised (contained)",
                    ).inc()

    pending: list[tuple[int, SimPoint, Optional[str]]] = []
    for index, point in enumerate(points):
        # rt points time real processes: not content-addressable, never
        # looked up or stored.
        key = (cache_key(point)
               if store is not None and point.cacheable else None)
        if key is not None:
            hit = store.get(key)
            if hit is not None:
                note(PointOutcome(index=index, point=point, result=hit, cached=True))
                continue
        pending.append((index, point, key))

    if not pending:
        return outcomes  # type: ignore[return-value]

    keys = {index: key for index, _, key in pending}
    # Worker snapshots fold into the parent registry in input order, each
    # once every earlier point has landed: a float sum depends on its
    # order, and this is the order a serial sweep records in.
    order = [index for index, _, _ in pending]
    landed: dict[int, Optional[dict]] = {}
    folded = 0

    def settle(index: int, result, error, elapsed: float,
               metrics: Optional[dict] = None) -> None:
        nonlocal folded
        if error is None and store is not None and keys[index] is not None:
            store.put(keys[index], result)
        landed[index] = metrics
        while folded < len(order) and order[folded] in landed:
            snapshot = landed.pop(order[folded])
            if snapshot is not None:
                metrics_registry.merge(snapshot)
            folded += 1
        note(
            PointOutcome(
                index=index,
                point=points[index],
                result=result,
                error=error,
                elapsed=elapsed,
                metrics=metrics,
            )
        )

    if jobs == 1 or len(pending) == 1:
        # In-process points record into the parent registry directly via
        # the pipeline's own flush; collecting per-point snapshots here
        # would double-count.
        for index, point, _ in pending:
            settle(*_run_point(index, point))
        return outcomes  # type: ignore[return-value]

    workers = min(jobs, len(pending))
    warm_params = tuple({point.params for _, point, _ in pending})
    with ProcessPoolExecutor(
        max_workers=workers,
        initializer=_warm_start,
        initargs=(warm_params,),
    ) as pool:
        futures = {
            pool.submit(_run_point, index, point, metered): index
            for index, point, _ in pending
        }
        remaining = set(futures)
        while remaining:
            done, remaining = wait(remaining, return_when=FIRST_COMPLETED)
            for future in done:
                try:
                    index, result, error, elapsed, metrics = future.result()
                except Exception:
                    # The pool itself failed (worker killed, unpicklable
                    # payload): charge it to the point, keep the batch.
                    index = futures[future]
                    result, error, elapsed, metrics = (
                        None, traceback.format_exc(), 0.0, None,
                    )
                settle(index, result, error, elapsed, metrics)
    return outcomes  # type: ignore[return-value]


def execute_point(point: SimPoint, cache=USE_DEFAULT_CACHE) -> PointResult:
    """Run (or fetch) a single point; raises on failure."""
    return run_points([point], jobs=1, cache=cache)[0].unwrap()


def raise_on_failures(outcomes: Sequence[PointOutcome]) -> None:
    """Raise :class:`~repro.errors.ExecutionError` listing any failed points."""
    failed = [o for o in outcomes if not o.ok]
    if not failed:
        return
    lines = [f"{len(failed)} of {len(outcomes)} sweep points failed:"]
    for outcome in failed:
        summary = outcome.error.strip().splitlines()[-1] if outcome.error else "?"
        lines.append(f"  [{outcome.index}] {outcome.point.display_label}: {summary}")
    lines.append("")
    lines.append(failed[0].error or "")
    raise ExecutionError("\n".join(lines))
