"""STAPPipeline: build, run, and measure the parallel pipelined system.

One :class:`STAPPipeline` instance corresponds to one of the paper's
experimental configurations: an algorithm shape, a processor assignment, a
machine, and a CPI count.  ``mode`` selects the execution backend:

``"modeled"``
    Payloads are sizes, computation is flops — fast, used for the paper's
    timing tables at 59-236 nodes.
``"functional"``
    Real CPI cubes flow through the simulated ranks and the pipeline emits
    real detection reports, verified against the sequential reference —
    used by integration tests and demos at reduced problem sizes.

Both modes share every line of task/redistribution/scheduling code; the
virtual-time behaviour is identical.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from statistics import mean
from typing import Dict, Optional

from repro.core.assignment import Assignment, TASK_NAMES
from repro.core.layout import PipelineLayout
from repro.core.redistribution import TAG_CODES, edge_tag
from repro.core.metrics import (
    PipelineMetrics,
    TaskMetrics,
    steady_state_slice,
)
from repro.core.task import Collector
from repro.core.tasks import TASK_CLASSES
from repro.des import Simulator
from repro.errors import ConfigurationError
from repro.machine import Machine, afrl_paragon
from repro.mpi import World
from repro.obs import TraceSink
from repro.perf import PerfReport, snapshot_counters
from repro.radar.datacube import CPIStream
from repro.radar.parameters import STAPParams
from repro.stap.detection import DetectionReport
from repro.stap.plan import KernelPlan
from repro.stap.reference import default_steering
from repro.stap.workspace import Workspace

#: Raw cubes kept alive at once in functional mode (double buffering means
#: neighbouring iterations are in flight together; 6 is comfortably safe).
_CUBE_CACHE_DEPTH = 6


@dataclass
class PipelineResult:
    """Everything one pipeline run produced."""

    metrics: PipelineMetrics
    reports: list[DetectionReport]
    collector: Collector
    num_cpis: int
    assignment: Assignment
    #: Total simulated wall-clock of the run (seconds).
    makespan: float
    #: Network counters: (messages, bytes).
    network_messages: int = 0
    network_bytes: int = 0
    #: Simulator wall-clock report; only set when the pipeline was built
    #: with ``perf=True``.
    perf: Optional[PerfReport] = None
    #: Observability sink (spans, message records, link stats); only set
    #: when the pipeline was built with ``trace=True`` or a sink.
    trace: Optional[TraceSink] = None


class STAPPipeline:
    """The parallel pipelined STAP application on a simulated machine."""

    def __init__(
        self,
        params: STAPParams,
        assignment: Assignment,
        machine: Optional[Machine] = None,
        mode: str = "modeled",
        stream: Optional[CPIStream] = None,
        num_cpis: int = 25,
        contention: str = "endpoint",
        azimuth_cycle: int = 1,
        steering=None,
        input_rate: Optional[float] = None,
        double_buffering: bool = True,
        collect_training: bool = True,
        perf: bool = False,
        trace=False,
        backend: Optional[str] = None,
    ):
        """``input_rate``: CPIs/second delivered by the radar front-end
        (None = data always available; the pipeline self-paces, measuring
        peak throughput).

        ``double_buffering``: the paper's Figure 10 communication/compute
        overlap; set False for the synchronous ablation.

        ``collect_training``: the paper's data-collection optimization on
        the Doppler -> weight edges; set False for the redundant-data
        ablation.

        ``perf``: attach a :class:`~repro.perf.PerfReport` (simulator
        wall-clock cost) to the result.  Off by default; when off, the
        run path does not touch the host clock at all.

        ``trace``: observability.  ``True`` attaches a fresh
        :class:`~repro.obs.TraceSink`; a sink instance is used as-is
        (e.g. a bounded one).  The sink records the span tree of every
        task iteration, per-message MPI lifecycles, and per-link network
        stats — purely passively, so modeled timestamps are identical
        with tracing on or off.  Off by default (one ``is None`` check
        per iteration/message/transfer).  Link stats (ports, and route
        links under ``links`` contention) come from the lowered transfer
        path, so running a traced pipeline with ``backend="python"`` raises
        :class:`ConfigurationError`.

        ``backend``: simulator core (see :mod:`repro.des.backends`): None
        or ``"lowered"`` (the plan-lowered core, the default) or
        ``"python"`` (the reference checker).  Both produce bit-identical
        results; the resolved name is available as ``self.backend``."""
        if mode not in ("modeled", "functional"):
            raise ConfigurationError(f"mode must be 'modeled' or 'functional', got {mode!r}")
        if num_cpis < 1:
            raise ConfigurationError(f"num_cpis must be >= 1, got {num_cpis}")
        if azimuth_cycle < 1:
            raise ConfigurationError(f"azimuth_cycle must be >= 1, got {azimuth_cycle}")
        self.params = params
        self.assignment = assignment
        self.machine = machine or afrl_paragon()
        self.machine.check_node_budget(assignment.total_nodes)
        self.mode = mode
        self.functional = mode == "functional"
        if self.functional:
            if stream is None:
                raise ConfigurationError("functional mode requires a CPIStream")
            if stream.azimuth_cycle != azimuth_cycle:
                raise ConfigurationError(
                    f"stream azimuth cycle {stream.azimuth_cycle} != "
                    f"pipeline azimuth_cycle {azimuth_cycle}"
                )
        self.stream = stream
        self.num_cpis = num_cpis
        self.contention = contention
        self.azimuth_cycle = azimuth_cycle
        if input_rate is not None and input_rate <= 0:
            raise ConfigurationError(f"input_rate must be positive, got {input_rate}")
        self.input_rate = input_rate
        self.double_buffering = double_buffering
        self.collect_training = collect_training
        self.perf = perf
        from repro.des.backends import TAG_LIMIT, resolve_backend

        #: The backend name as requested (None preserved for clones).
        self.requested_backend = backend
        #: The resolved, concrete backend this pipeline will run on.
        self.backend = resolve_backend(backend)
        last_tag = max(edge_tag(name, num_cpis - 1) for name in TAG_CODES)
        if self.backend == "lowered" and last_tag >= TAG_LIMIT:
            raise ConfigurationError(
                f"num_cpis={num_cpis} needs MPI tags up to {last_tag}, past "
                f"the lowered matcher's bound {TAG_LIMIT - 1}; split the run "
                f"into shorter pipelines"
            )
        # Explicit identity checks: an *empty* TraceSink has ``__len__`` 0
        # and is falsy, but a caller passing one still wants tracing.
        if trace is True:
            self.trace_sink: Optional[TraceSink] = TraceSink()
        elif trace is False or trace is None:
            self.trace_sink = None
        else:
            self.trace_sink = trace
        #: True when the steering matrix is the deterministic function of
        #: ``params`` (lets run_measured's probe route through the result
        #: cache; a caller-supplied steering matrix is not content-keyed).
        self._default_steering = steering is None
        self.layout = PipelineLayout(
            params, assignment, collect_training=collect_training
        )
        # Fail fast if any rank's working set exceeds node memory (64 MiB
        # on the Paragon).
        self.layout.validate_memory(self.machine.node.memory_bytes)
        #: Per-run kernel constants, computed once and shared by every
        #: functional task (and only built when the numerics actually run).
        #: Default-steering plans are memoized across pipelines (pure
        #: functions of the frozen params — see repro.stap.plan.default_plan).
        if not self.functional:
            self.steering = (
                default_steering(params) if steering is None else steering
            )
            self.kernel_plan = None
        elif steering is None:
            from repro.stap.plan import default_plan

            self.kernel_plan = default_plan(params)
            self.steering = self.kernel_plan.steering
        else:
            self.steering = steering
            self.kernel_plan = KernelPlan.build(params, self.steering)
        self._cube_cache: Dict[int, object] = {}

    # -- functional data source ---------------------------------------------------
    def _cube(self, cpi_index: int):
        cube = self._cube_cache.get(cpi_index)
        if cube is None:
            cube = self.stream.cube(cpi_index)
            self._cube_cache[cpi_index] = cube
            for old in [i for i in self._cube_cache if i <= cpi_index - _CUBE_CACHE_DEPTH]:
                del self._cube_cache[old]
            # The window eviction above only drops indices *behind* the
            # newest request; an out-of-order request (an older CPI arriving
            # after newer ones are cached) would otherwise grow the cache
            # past its depth.  Enforce the bound explicitly.
            while len(self._cube_cache) > _CUBE_CACHE_DEPTH:
                del self._cube_cache[min(self._cube_cache)]
        return cube

    # -- construction ------------------------------------------------------------------
    def _build_tasks(self, collector: Collector) -> Dict[int, object]:
        """world rank -> task instance."""
        tasks: Dict[int, object] = {}
        common = dict(
            num_cpis=self.num_cpis,
            collector=collector,
            functional=self.functional,
            weight_delay=self.azimuth_cycle,
            double_buffering=self.double_buffering,
            obs=self.trace_sink,
            plan=self.kernel_plan,
            workspace=Workspace() if self.functional else None,
        )
        cost = self.machine.network_cost
        pack = self.machine.packing_cost
        for task_name in TASK_NAMES:
            cls = TASK_CLASSES[task_name]
            for local_rank in range(self.assignment.count_of(task_name)):
                kwargs = dict(common)
                if task_name == "doppler":
                    nbytes = self.layout.sensor_bytes_of(local_rank)
                    kwargs["sensor_seconds"] = (
                        cost.startup_s
                        + cost.per_byte_s * nbytes
                        + pack.copy_time(nbytes, strided=False)
                    )
                    kwargs["source"] = self._cube if self.functional else None
                    if self.input_rate is not None:
                        kwargs["input_period"] = 1.0 / self.input_rate
                world_rank = self.layout.world_rank(task_name, local_rank)
                tasks[world_rank] = cls(self.layout, local_rank, **kwargs)
        return tasks

    # -- execution ---------------------------------------------------------------------
    def run(self) -> PipelineResult:
        """Simulate the whole run and aggregate the paper's measurements."""
        from repro.des.backends import get_backend
        from repro.obs.metrics import metrics_registry, record_pipeline_run

        engine = get_backend(self.backend)
        sim = engine.create_simulator()
        world = World(
            sim,
            self.machine,
            num_ranks=self.assignment.total_nodes,
            contention=self.contention,
            backend=engine,
        )
        collector = Collector()
        tasks = self._build_tasks(collector)
        sink = self.trace_sink
        if sink is not None:
            world.network.attach_trace(sink)  # raises on the reference path
            sink.bind(sim)
            world.obs = sink
            sink.meta.update(
                label=f"{self.assignment.name or 'pipeline'} [{self.mode}]",
                num_cpis=self.num_cpis,
                contention=self.contention,
                ranks={
                    world_rank: f"{task.name}[{task.local_rank}]"
                    for world_rank, task in tasks.items()
                },
            )
        for world_rank, task in tasks.items():
            world.spawn(
                world_rank,
                self._rank_program(task),
                name=f"{task.name}[{task.local_rank}]",
            )
        if self.perf:
            wall_start = time.perf_counter()
            sim.run()
            wall = time.perf_counter() - wall_start
            perf_report = PerfReport(
                wall_seconds=wall,
                sim_seconds=sim.now,
                num_cpis=self.num_cpis,
                label=f"{self.assignment.name or 'pipeline'} [{self.mode}]",
                **snapshot_counters(sim, world),
            )
        else:
            sim.run()
            perf_report = None

        if sink is not None:
            sink.meta["makespan"] = sim.now
        metrics = self._aggregate(collector)
        if metrics_registry.enabled:
            record_pipeline_run(self, sim, world, metrics, makespan=sim.now)
        reports = self._reports(collector)
        return PipelineResult(
            metrics=metrics,
            reports=reports,
            collector=collector,
            num_cpis=self.num_cpis,
            assignment=self.assignment,
            makespan=sim.now,
            network_messages=world.network.messages_sent,
            network_bytes=world.network.bytes_sent,
            perf=perf_report,
            trace=sink,
        )

    @staticmethod
    def _rank_program(task):
        def program(ctx):
            return task.run(ctx)

        return program

    def _clone(self, input_rate=None, trace=False) -> "STAPPipeline":
        """A pipeline with identical configuration (used by run_measured)."""
        return STAPPipeline(
            self.params,
            self.assignment,
            machine=self.machine,
            mode=self.mode,
            stream=self.stream,
            num_cpis=self.num_cpis,
            contention=self.contention,
            azimuth_cycle=self.azimuth_cycle,
            steering=self.steering,
            input_rate=input_rate if input_rate is not None else self.input_rate,
            double_buffering=self.double_buffering,
            collect_training=self.collect_training,
            perf=self.perf,
            trace=trace,
            backend=self.requested_backend,
        )

    # -- measurement -------------------------------------------------------------------
    def _aggregate(self, collector: Collector) -> PipelineMetrics:
        task_metrics = {}
        for task_name in TASK_NAMES:
            timings = collector.timings.get(task_name, [])
            task_metrics[task_name] = TaskMetrics.aggregate(
                task_name,
                self.assignment.count_of(task_name),
                timings,
                self.num_cpis,
            )
        lo, hi = steady_state_slice(self.num_cpis)
        done = [collector.report_done[i] for i in range(lo, hi)]
        starts = [collector.input_start[i] for i in range(lo, hi)]
        if len(done) >= 2:
            throughput = (len(done) - 1) / (done[-1] - done[0])
        else:
            throughput = float("nan")
        latency = mean(d - s for d, s in zip(done, starts))
        return PipelineMetrics(
            tasks=task_metrics,
            measured_throughput=throughput,
            measured_latency=latency,
        )

    def run_measured(self) -> PipelineResult:
        """Two-phase measurement: probe throughput, then re-run paced.

        An unpaced run drives the pipeline at peak rate, which (like any
        open-loop queueing system at capacity) accumulates backlog and
        inflates per-CPI latency.  The real system's CPIs arrived at the
        radar's rate, so latency is measured with the input paced at the
        *measured* sustainable throughput: phase 1 probes it, phase 2
        re-runs with that input rate and reports both numbers — the
        methodology behind the paper's Table 8 "real" rows.
        """
        sink = self.trace_sink
        # Identical configurations probe to identical throughputs, so the
        # probe is served by the content-addressed result cache when the
        # configuration is coverable by its key (modeled mode, default
        # steering); see repro.exec.probe_throughput.
        from repro.exec import probe_throughput

        throughput = probe_throughput(self)
        if throughput is None:
            if sink is None:
                probe = self.run()
            else:
                # Trace the paced (reported) run, not the probe: one sink
                # must describe one run or its timestamps would restart
                # mid-stream.
                probe = self._clone(trace=False).run()
            throughput = probe.metrics.measured_throughput
        # ``sink is not None``, not truthiness: a fresh TraceSink is empty
        # (``__len__`` == 0, hence falsy) and used to be silently dropped
        # here, so traced measured runs never produced timelines.
        paced = self._clone(
            input_rate=throughput, trace=sink if sink is not None else False
        )
        result = paced.run()
        # The paced run's throughput is capped by its own input; report the
        # probe's (peak) throughput with the paced latency.
        result.metrics.measured_throughput = throughput
        return result

    # -- real execution ----------------------------------------------------------
    def run_parallel(self, workers: Optional[int] = None, depth: int = 2,
                     plan=None, timeout: Optional[float] = None):
        """Execute this functional configuration for real on local cores.

        Where :meth:`run` *simulates* the paper's parallel pipeline, this
        runs it: one OS process per stage replica, shared-memory double
        buffers between stages (see :mod:`repro.rt`).  The stage
        replication is scaled from this pipeline's processor assignment
        onto ``workers`` processes (``plan`` overrides).  Detections are
        bit-identical to the sequential reference and to this pipeline's
        own functional reports.

        Returns a :class:`repro.rt.runtime.RtResult` (host-time
        throughput/latency — not simulated timestamps).
        """
        if not self.functional:
            raise ConfigurationError(
                "run_parallel executes real kernels; build the pipeline "
                "with mode='functional' (run() simulates modeled mode)")
        from repro.rt import ParallelSTAP

        return ParallelSTAP(
            self.params,
            self.stream,
            num_cpis=self.num_cpis,
            azimuth_cycle=self.azimuth_cycle,
            assignment=self.assignment,
            workers=workers,
            plan=plan,
            kernel_plan=self.kernel_plan,
            depth=depth,
        ).run(timeout=timeout)

    def _reports(self, collector: Collector) -> list[DetectionReport]:
        if not self.functional:
            return []
        reports = []
        for cpi in range(self.num_cpis):
            detections = tuple(sorted(collector.detections.get(cpi, [])))
            reports.append(
                DetectionReport(
                    cpi_index=cpi,
                    detections=detections,
                    completed_at=collector.report_done.get(cpi, float("nan")),
                )
            )
        return reports
