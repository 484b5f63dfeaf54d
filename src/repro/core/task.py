"""The pipeline task framework: Figure 10 as code.

Every task rank runs :meth:`PipelineTask.run` — a direct transcription of
the paper's double-buffered loop::

    for i in 0..n-1:
        t0 = read timer
        post async receives for iteration i+1          (inBuf[next])
        wait for completion of receives for iteration i (inBuf[cur])
        unpack inBuf[cur]
        t1 = read timer
        compute on inBuf[cur] -> outBuf[cur]
        t2 = read timer
        pack outgoing messages from outBuf[cur]
        post async sends for iteration i
        wait for completion of sends of iteration i-1   (outBuf[prev])
        t3 = read timer

``recv = t1-t0`` (waiting + unpack), ``comp = t2-t1``, ``send = t3-t2``
(pack + post + waiting for the previous sends) — the exact decomposition
behind the paper's Tables 2-10.

Subclasses supply the task-specific pieces: which edges they receive on for
a given iteration, the per-rank flop count, and ``compute`` (which, in
functional mode, also performs the real NumPy work and returns real
payloads).
"""

from __future__ import annotations

import abc
from typing import Any, Dict, Optional

from repro.core.layout import PipelineLayout
from repro.core.metrics import TaskTiming
from repro.core.redistribution import edge_tag
from repro.errors import ConfigurationError
from repro.mpi.context import RankContext

#: Sentinel payload used in modeled mode (sizes matter, contents don't).
MODELED = None


class Collector:
    """Run-wide sink for timings, detections, and latency bookkeeping.

    Plain Python shared state (not simulated communication): it stands in
    for the paper's measurement instrumentation, which likewise lived
    outside the data path.
    """

    def __init__(self):
        self.timings: Dict[str, list[TaskTiming]] = {}
        #: cpi -> earliest time any Doppler rank began reading the input.
        self.input_start: Dict[int, float] = {}
        #: cpi -> latest time any CFAR rank finished its share of the report.
        self.report_done: Dict[int, float] = {}
        #: cpi -> merged detection list (functional mode only).
        self.detections: Dict[int, list] = {}

    def record_timing(self, task: str, timing: TaskTiming) -> None:
        self.timings.setdefault(task, []).append(timing)

    def record_input_start(self, cpi: int, time: float) -> None:
        current = self.input_start.get(cpi)
        if current is None or time < current:
            self.input_start[cpi] = time

    def record_report(self, cpi: int, detections, time: float) -> None:
        current = self.report_done.get(cpi)
        if current is None or time > current:
            self.report_done[cpi] = time
        if detections:
            self.detections.setdefault(cpi, []).extend(detections)
        else:
            self.detections.setdefault(cpi, [])


class PipelineTask(abc.ABC):
    """One task of the pipeline, instantiated once per local rank."""

    #: Task name (must match :data:`repro.core.assignment.TASK_NAMES`).
    name: str = ""
    #: Kernel class for the machine model's rate table.
    kernel: str = "default"
    #: Whether this task's spans sit on the equation (2) latency path.
    #: The weight tasks override this to False: their output feeds a
    #: *later* CPI (temporal dependency TD(1,3)), so their time never
    #: contributes to a CPI's input-to-report latency.
    latency_path: bool = True

    def __init__(
        self,
        layout: PipelineLayout,
        local_rank: int,
        num_cpis: int,
        collector: Collector,
        functional: bool,
        weight_delay: int = 1,
        double_buffering: bool = True,
        obs=None,
        plan=None,
        workspace=None,
    ):
        self.layout = layout
        self.params = layout.params
        self.local_rank = local_rank
        self.num_cpis = num_cpis
        self.collector = collector
        self.functional = functional
        #: The :class:`~repro.stap.plan.KernelPlan` — per-run constants
        #: (steering, windows, replica spectrum, cold-start weights, CFAR
        #: factors) computed once by the pipeline and shared by every task.
        #: Functional tasks require it; modeled tasks run no kernel.
        if functional and plan is None:
            raise ConfigurationError(
                f"functional {self.name} task needs a KernelPlan"
            )
        self.plan = plan
        #: Iterations between a weight task training on CPI i and those
        #: weights being applied (= azimuth revisit period; 1 when every
        #: CPI shares one azimuth).
        self.weight_delay = weight_delay
        #: The paper's Figure 10 overlap strategy.  False = synchronous
        #: ablation: receives are posted only when needed and every send is
        #: drained before the iteration ends, so communication no longer
        #: overlaps computation.
        self.double_buffering = double_buffering
        #: Optional :class:`~repro.obs.TraceSink`; when attached, every
        #: iteration records its span tree (one ``is None`` check per
        #: iteration when off — the timestamps are read either way).
        self._obs = obs
        #: Optional :class:`~repro.stap.workspace.Workspace` shared by the
        #: functional tasks of one simulation: it runs one task's compute
        #: at a time, and a task passes the workspace only to kernels whose
        #: arrays it has used up before compute returns (never to those
        #: whose output it sends).
        self.workspace = workspace
        # Per-edge lookups reused every iteration (lazily built: an edge's
        # receive sources and unpack charge are static for a given rank).
        self._recv_sources_cache: Dict[str, list] = {}
        self._unpack_charge_cache: Dict[str, Optional[tuple]] = {}

    # ------------------------------------------------------------------ hooks --
    def pre_iteration(self, ctx: RankContext, cpi: int):
        """Generator run before an iteration's clock starts.

        The Doppler task uses it to wait for sensor-data availability when
        the input is externally paced; the wait is excluded from the
        recv/latency accounting (the data simply was not there yet).
        """
        return
        yield  # pragma: no cover - makes this a generator

    def recv_edges(self, cpi: int) -> list[str]:
        """Edge names this task receives on at iteration ``cpi``."""
        return self.layout.in_edges(self.name)

    def send_tag_cpi(self, edge_name: str, cpi: int) -> int:
        """The CPI index stamped on outgoing messages of an edge."""
        return cpi

    def recv_tag_cpi(self, edge_name: str, cpi: int) -> int:
        """The CPI index expected on incoming messages of an edge."""
        return cpi

    def extra_recv_seconds(self, cpi: int) -> float:
        """Non-MPI input time (the Doppler task's sensor transfer)."""
        return 0.0

    @abc.abstractmethod
    def local_flops(self, cpi: int) -> float:
        """This rank's share of the task's per-CPI floating-point work."""

    @abc.abstractmethod
    def compute(self, cpi: int, received: Dict[str, Dict[int, Any]]):
        """Do the task's work for one CPI.

        ``received`` maps edge name -> source local rank -> payload.
        Returns ``sends``: list of ``(edge_name, [(message, payload), ...])``
        in plan order.  In modeled mode payloads are :data:`MODELED`.
        """

    def on_iteration_start(self, cpi: int, now: float) -> None:
        """Hook at t0 (Doppler uses it to stamp input availability)."""

    def on_iteration_end(self, cpi: int, now: float) -> None:
        """Hook at t3 (CFAR uses it to deliver the detection report)."""

    # ----------------------------------------------------------------- helpers --
    def _recv_sources(self, edge_name: str) -> list:
        """Static (src local rank, src world rank) pairs for one in-edge."""
        sources = self._recv_sources_cache.get(edge_name)
        if sources is None:
            plan = self.layout.plan(edge_name)
            sources = self._recv_sources_cache[edge_name] = [
                (message.src, self.layout.world_rank(plan.src_task, message.src))
                for message in plan.recvs_of(self.local_rank)
            ]
        return sources

    def _post_recvs(self, ctx: RankContext, cpi: int):
        """Post irecvs for iteration ``cpi``; returns (edge, src, request)."""
        entries = []
        for edge_name in self.recv_edges(cpi):
            tag = edge_tag(edge_name, self.recv_tag_cpi(edge_name, cpi))
            for src, src_world in self._recv_sources(edge_name):
                entries.append((edge_name, src, ctx.irecv(source=src_world, tag=tag)))
        return entries

    def _unpack_charges(self, cpi: int) -> list[tuple[int, bool]]:
        """(nbytes, strided) pairs to charge for assembling the inputs."""
        charges = []
        for edge_name in self.recv_edges(cpi):
            charge = self._unpack_charge_cache.get(edge_name, False)
            if charge is False:
                plan = self.layout.plan(edge_name)
                nbytes = plan.recv_bytes_of(self.local_rank)
                charge = (nbytes, plan.unpack_strided) if nbytes else None
                self._unpack_charge_cache[edge_name] = charge
            if charge is not None:
                charges.append(charge)
        return charges

    # -------------------------------------------------------------------- loop --
    def run(self, ctx: RankContext):
        """The Figure 10 double-buffered loop (a DES process generator)."""
        pending_recvs: Dict[int, list] = {}
        if self.double_buffering:
            pending_recvs[0] = self._post_recvs(ctx, 0)
        prev_sends: list = []
        for cpi in range(self.num_cpis):
            yield from self.pre_iteration(ctx, cpi)
            t0 = ctx.wtime()
            self.on_iteration_start(cpi, t0)
            if self.double_buffering:
                # Post async receives for the *next* iteration.
                if cpi + 1 < self.num_cpis:
                    pending_recvs[cpi + 1] = self._post_recvs(ctx, cpi + 1)
            else:
                # Synchronous ablation: post only this iteration's receives.
                pending_recvs[cpi] = self._post_recvs(ctx, cpi)
            # Wait for this iteration's receives.
            entries = pending_recvs.pop(cpi)
            if entries:
                yield ctx.wait_all([request for _, _, request in entries])
            received: Dict[str, Dict[int, Any]] = {}
            for edge_name, src, request in entries:
                received.setdefault(edge_name, {})[src] = request.value.payload
            # Unpack (data assembly) — inside the recv segment, as in Fig 10.
            for nbytes, strided in self._unpack_charges(cpi):
                yield ctx.copy(nbytes, strided=strided)
            extra = self.extra_recv_seconds(cpi)
            if extra > 0.0:
                yield ctx.elapse(extra)
            t1 = ctx.wtime()

            sends = self.compute(cpi, received)
            flops = self.local_flops(cpi)
            if flops > 0.0:
                yield ctx.compute(self.kernel, flops)
            t2 = ctx.wtime()

            # Pack (data collection / reorganization) + post async sends.
            send_requests = []
            offsets = self.layout.assignment.rank_offsets()
            for edge_name, messages in sends:
                plan = self.layout.plan(edge_name)
                pack_bytes = sum(message.nbytes for message, _ in messages)
                if pack_bytes:
                    yield ctx.copy(pack_bytes, strided=plan.pack_strided)
                tag = edge_tag(edge_name, self.send_tag_cpi(edge_name, cpi))
                dst_offset = offsets[plan.dst_task]
                for message, payload in messages:
                    send_requests.append(
                        ctx.isend(
                            payload,
                            dest=dst_offset + message.dst,
                            tag=tag,
                            nbytes=message.nbytes,
                        )
                    )
            # Wait for the previous iteration's sends (outBuf[prev] reusable)
            # — or, without double buffering, for this iteration's own.
            if not self.double_buffering:
                prev_sends = send_requests
                send_requests = []
            if prev_sends:
                yield ctx.wait_all(prev_sends)
            prev_sends = send_requests
            t3 = ctx.wtime()

            self.collector.record_timing(
                self.name,
                TaskTiming(cpi_index=cpi, rank=self.local_rank, t0=t0, t1=t1, t2=t2, t3=t3),
            )
            if self._obs is not None:
                self._obs.record_iteration(
                    self.name,
                    self.local_rank,
                    ctx.world_rank,
                    cpi,
                    t0,
                    t1,
                    t2,
                    t3,
                    latency_path=self.latency_path,
                )
            self.on_iteration_end(cpi, t3)
        # Drain the final iteration's sends before exiting.
        if prev_sends:
            yield ctx.wait_all(prev_sends)
