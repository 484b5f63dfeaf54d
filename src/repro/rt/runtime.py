"""ParallelSTAP: the process-parallel pipelined runtime orchestrator.

Executes the functional STAP chain the way the paper's machine did: one
worker process per stage replica, double-buffered shared-memory channels
between stages, temporal parallelism across in-flight CPIs.  The parent
builds every channel and forks the workers, then sits on one result
queue collecting detection reports, per-worker completion messages, and
errors.

Shutdown contract:

* **success** — every worker exhausts its CPI quota, posts ``done`` and
  exits; the parent joins them and unlinks all shared memory;
* **worker exception** — the worker posts its traceback; the parent sets
  the abort event (unblocking everyone), raises
  :class:`~repro.errors.PipelineError` naming the stage, and still joins
  and unlinks everything in its ``finally``;
* **hard crash** (a worker dying without a message) — the parent notices
  the dead process during its poll, drains any in-flight messages, then
  raises :class:`PipelineError` with the exit code.
"""

from __future__ import annotations

import math
import multiprocessing
import queue as _queue
import traceback
from dataclasses import dataclass, field
from statistics import mean
from time import perf_counter
from typing import Dict, List, Optional, Tuple

from repro.core.assignment import TASK_NAMES, Assignment, CASE1
from repro.core.metrics import steady_state_slice
from repro.errors import ConfigurationError, PipelineError
from repro.obs.metrics import MetricsRegistry, MetricsSnapshot, metrics_registry
from repro.radar.parameters import STAPParams
from repro.rt.metrics import record_rt_run
from repro.rt.plan import EDGES, StagePlan, edge_specs
from repro.rt.shm import Aborted, ShmChannel
from repro.rt.stages import RtContext, run_stage
from repro.stap.detection import DetectionReport
from repro.stap.plan import KernelPlan
from repro.stap.reference import default_steering
from repro.stap.threads import one_thread_children

#: Parent poll interval on the result queue (seconds).
_POLL_SECONDS = 0.1
#: Grace period for draining in-flight messages from a dead worker.
_DRAIN_SECONDS = 1.0
#: Seconds to wait for workers to exit after their final message.
_JOIN_SECONDS = 10.0


def _worker_entry(ctx: RtContext, stage: str, replica: int) -> None:
    """Process target: run one stage replica, always report how it ended.

    The workers already occupy the cores, so kernels here run on one
    thread, BLAS included: the parent forks every worker inside
    :func:`~repro.stap.threads.one_thread_children`.
    """
    if ctx.metered:
        metrics_registry.enable(reset=True)
    try:
        run_stage(ctx, stage, replica)
    except Aborted:
        return  # parent-initiated shutdown; it is not waiting for us
    except BaseException:
        try:
            ctx.post(("error", stage, replica, traceback.format_exc()))
        except Exception:  # pragma: no cover - queue already torn down
            pass
        return
    snapshot = metrics_registry.snapshot().to_dict() if ctx.metered else None
    ctx.post(("done", stage, replica, snapshot))


@dataclass
class RtResult:
    """Everything one parallel run produced."""

    reports: List[DetectionReport]
    num_cpis: int
    plan: StagePlan
    #: Host seconds from worker launch to the last detection report.
    elapsed_seconds: float
    #: End-to-end rate over the whole run, CPIs/second.
    throughput: float
    #: Rate over the paper's middle CPIs (pipeline fill/drain excluded).
    steady_throughput: float
    #: Mean input-to-report latency over the middle CPIs, seconds.
    latency: float
    #: Merged per-worker metrics (only when the registry was enabled).
    metrics: Optional[MetricsSnapshot] = None

    @property
    def workers(self) -> int:
        return self.plan.total_workers


class ParallelSTAP:
    """Run the functional STAP pipeline across real worker processes."""

    def __init__(
        self,
        params: STAPParams,
        stream,
        num_cpis: int,
        azimuth_cycle: int = 1,
        assignment: Optional[Assignment] = None,
        workers: Optional[int] = None,
        plan: Optional[StagePlan] = None,
        steering=None,
        kernel_plan: Optional[KernelPlan] = None,
        depth: int = 2,
    ):
        """``plan`` wins when given; otherwise the stage replication is
        scaled from ``assignment`` (default: the paper's Table 7 case 1
        shape) onto ``workers`` local processes.  ``depth`` is the channel
        ring depth — 2 is the paper's double buffering.

        ``num_cpis`` may be zero: every worker's quota is empty and the
        run terminates immediately with no reports."""
        if num_cpis < 0:
            raise ConfigurationError(f"num_cpis must be >= 0, got {num_cpis}")
        if azimuth_cycle < 1:
            raise ConfigurationError(
                f"azimuth_cycle must be >= 1, got {azimuth_cycle}")
        stream_cycle = getattr(stream, "azimuth_cycle", azimuth_cycle)
        if stream_cycle != azimuth_cycle:
            raise ConfigurationError(
                f"stream azimuth cycle {stream_cycle} != runtime "
                f"azimuth_cycle {azimuth_cycle}")
        if getattr(stream, "params", params) != params:
            raise ConfigurationError("stream params differ from runtime params")
        self.params = params
        self.stream = stream
        self.num_cpis = num_cpis
        self.azimuth_cycle = azimuth_cycle
        if plan is None:
            plan = StagePlan.from_assignment(
                assignment or CASE1, workers=workers,
                azimuth_cycle=azimuth_cycle)
        self.plan = plan
        if kernel_plan is None:
            steering = (default_steering(params) if steering is None
                        else steering)
            kernel_plan = KernelPlan.build(params, steering)
        self.kernel_plan = kernel_plan
        if depth < 1:
            raise ConfigurationError(f"depth must be >= 1, got {depth}")
        self.depth = depth

    # -- construction ------------------------------------------------------------
    @staticmethod
    def _context():
        methods = multiprocessing.get_all_start_methods()
        if "fork" not in methods:
            raise PipelineError(
                "repro.rt requires the 'fork' start method (workers inherit "
                f"channels and streams); this platform offers {methods}")
        return multiprocessing.get_context("fork")

    def _build_channels(self, mp_ctx) -> Dict[Tuple[str, int, int], ShmChannel]:
        specs = edge_specs(self.params)
        channels: Dict[Tuple[str, int, int], ShmChannel] = {}
        for edge, (src_stage, dst_stage) in EDGES.items():
            shape, dtype = specs[edge]
            for src in range(self.plan.of(src_stage)):
                for dst in range(self.plan.of(dst_stage)):
                    channels[(edge, src, dst)] = ShmChannel(
                        mp_ctx, f"{edge}[{src}->{dst}]", shape, dtype,
                        depth=self.depth)
        return channels

    # -- execution ---------------------------------------------------------------
    def run(self, timeout: Optional[float] = None) -> RtResult:
        """Run to completion; raises :class:`PipelineError` on any worker
        failure (after tearing everything down)."""
        mp_ctx = self._context()
        metered = metrics_registry.enabled
        channels = self._build_channels(mp_ctx)
        abort = mp_ctx.Event()
        result_q = mp_ctx.Queue()
        ctx = RtContext(
            params=self.params, plan=self.plan, kernel_plan=self.kernel_plan,
            stream=self.stream, num_cpis=self.num_cpis,
            azimuth_cycle=self.azimuth_cycle, channels=channels,
            result_q=result_q, abort=abort, metered=metered,
        )
        specs = [(stage, replica) for stage in TASK_NAMES
                 for replica in range(self.plan.of(stage))]
        workers: Dict[Tuple[str, int], multiprocessing.Process] = {}
        reports: Dict[int, tuple] = {}
        starts: Dict[int, float] = {}
        done: set = set()
        merged: Optional[MetricsRegistry] = (
            MetricsRegistry() if metered else None)

        def handle(message) -> None:
            kind = message[0]
            if kind == "start":
                starts[message[1]] = message[2]
            elif kind == "report":
                reports[message[1]] = (message[2], message[3])
            elif kind == "done":
                _, stage, replica, snapshot = message
                done.add((stage, replica))
                if snapshot is not None and merged is not None:
                    merged.merge(snapshot)
            elif kind == "error":
                _, stage, replica, trace = message
                raise PipelineError(
                    f"worker {stage}[{replica}] failed:\n{trace}",
                    stage=stage, replica=replica)
            else:  # pragma: no cover - future protocol drift
                raise PipelineError(f"unknown runtime message {message!r}")

        start_time = perf_counter()
        deadline = None if timeout is None else start_time + timeout
        # The workers inherit one-thread kernels and BLAS; the parent gets
        # its own counts back only once every worker has exited.
        with one_thread_children():
            try:
                for stage, replica in specs:
                    proc = mp_ctx.Process(
                        target=_worker_entry, args=(ctx, stage, replica),
                        name=f"rt-{stage}-{replica}", daemon=True)
                    proc.start()
                    workers[(stage, replica)] = proc

                while len(done) < len(specs):
                    try:
                        handle(result_q.get(timeout=_POLL_SECONDS))
                        continue
                    except _queue.Empty:
                        pass
                    if deadline is not None and perf_counter() > deadline:
                        raise PipelineError(
                            f"parallel run exceeded {timeout} s "
                            f"({len(done)}/{len(specs)} workers finished, "
                            f"{len(reports)}/{self.num_cpis} reports)")
                    self._check_liveness(workers, done, result_q, handle)

                if len(reports) != self.num_cpis:
                    missing = sorted(set(range(self.num_cpis)) - set(reports))
                    raise PipelineError(
                        f"workers finished but reports are missing for CPIs "
                        f"{missing[:8]}{'...' if len(missing) > 8 else ''}")
            except BaseException:
                abort.set()
                raise
            finally:
                self._shutdown(workers, channels, result_q, abort)

        return self._finish(reports, starts, start_time, merged)

    # -- internals ---------------------------------------------------------------
    @staticmethod
    def _check_liveness(workers, done, result_q, handle) -> None:
        """Detect workers that died without a final message."""
        for (stage, replica), proc in workers.items():
            if (stage, replica) in done or proc.is_alive():
                continue
            # Its last messages may still be in the queue's pipe: drain
            # briefly before declaring a hard crash.
            grace_end = perf_counter() + _DRAIN_SECONDS
            while (stage, replica) not in done and perf_counter() < grace_end:
                try:
                    handle(result_q.get(timeout=_POLL_SECONDS))
                except _queue.Empty:
                    pass
            if (stage, replica) not in done:
                raise PipelineError(
                    f"worker {stage}[{replica}] died without reporting "
                    f"(exit code {proc.exitcode})",
                    stage=stage, replica=replica)

    @staticmethod
    def _shutdown(workers, channels, result_q, abort) -> None:
        """Join (or kill) every worker, then free all shared memory."""
        abort_was_set = abort.is_set()
        for proc in workers.values():
            proc.join(timeout=_JOIN_SECONDS if not abort_was_set else 2.0)
        for proc in workers.values():
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=2.0)
        # Drain anything left so the queue's feeder thread can exit.
        try:
            while True:
                result_q.get_nowait()
        except (_queue.Empty, OSError, ValueError):
            pass
        result_q.close()
        for channel in channels.values():
            channel.destroy()

    def _finish(self, reports, starts, start_time, merged) -> RtResult:
        out_reports = []
        for cpi in range(self.num_cpis):
            detections, finished = reports[cpi]
            out_reports.append(DetectionReport(
                cpi_index=cpi, detections=detections,
                completed_at=finished - start_time))
        elapsed = max((r.completed_at for r in out_reports), default=0.0)
        throughput = (self.num_cpis / elapsed
                      if self.num_cpis and elapsed > 0 else float("nan"))
        steady_throughput = float("nan")
        latency = float("nan")
        if self.num_cpis:
            lo, hi = steady_state_slice(self.num_cpis)
            mid = [reports[i][1] for i in range(lo, hi)]
            if len(mid) >= 2 and mid[-1] > mid[0]:
                steady_throughput = (len(mid) - 1) / (mid[-1] - mid[0])
            spans = [reports[i][1] - starts[i]
                     for i in range(lo, hi) if i in starts]
            if spans:
                latency = mean(spans)
        snapshot = None
        if merged is not None:
            snapshot = merged.snapshot()
            metrics_registry.merge(snapshot)
        result = RtResult(
            reports=out_reports, num_cpis=self.num_cpis, plan=self.plan,
            elapsed_seconds=elapsed, throughput=throughput,
            steady_throughput=steady_throughput, latency=latency,
            metrics=snapshot,
        )
        record_rt_run(result)
        return result
