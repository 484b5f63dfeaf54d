"""Replicated pipelines — the paper's stated future work.

"In the future we plan to incorporate further optimizations including
multi-threading, **multiple pipelines** and multiple processors on each
compute node" (Section 8); related work [13] calls the technique
*replication of pipeline stages*.  A :class:`ReplicatedSTAPPipeline` runs
``R`` complete copies of the parallel pipeline on disjoint node sets inside
one simulation; the radar front-end deals CPIs to the replicas round-robin
(replica ``r`` gets global CPIs ``r, r+R, r+2R, ...``).

Expected behaviour, which the benchmarks verify: aggregate throughput
scales ~R x while the latency of each CPI stays at the single-pipeline
value — the complement of adding nodes *within* one pipeline, which
improves latency but with diminishing throughput efficiency.

In functional mode each replica trains its adaptive weights only on the
CPIs it processes (every R-th), exactly as a real replicated deployment
would; reports therefore differ slightly from a single sequential pass and
no bit-equality with the reference is claimed.
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import mean
from typing import Optional

from repro.core.assignment import Assignment
from repro.core.metrics import PipelineMetrics, TaskMetrics, steady_state_slice
from repro.core.pipeline import STAPPipeline
from repro.core.task import Collector
from repro.errors import ConfigurationError
from repro.machine import Machine, afrl_paragon
from repro.mpi import Communicator, World
from repro.radar.parameters import STAPParams


@dataclass
class ReplicationResult:
    """Aggregate behaviour of a replicated deployment."""

    replicas: int
    nodes_per_replica: int
    #: Aggregate CPIs/second across all replicas.
    aggregate_throughput: float
    #: Mean per-CPI latency (unchanged by replication, by design).
    latency: float
    #: Per-replica metrics, for inspection.
    per_replica: list[PipelineMetrics]

    @property
    def total_nodes(self) -> int:
        return self.replicas * self.nodes_per_replica

    def summary(self) -> str:
        return (
            f"{self.replicas} x {self.nodes_per_replica}-node pipelines: "
            f"{self.aggregate_throughput:.3f} CPIs/s aggregate, "
            f"latency {self.latency:.4f} s per CPI"
        )


class ReplicatedSTAPPipeline:
    """R independent pipeline replicas fed round-robin from one sensor."""

    def __init__(
        self,
        params: STAPParams,
        assignment: Assignment,
        replicas: int,
        machine: Optional[Machine] = None,
        num_cpis: int = 24,
        input_rate: Optional[float] = None,
        contention: str = "endpoint",
    ):
        """``num_cpis`` is the *global* CPI count (must divide by replicas);
        ``input_rate`` the global radar rate (None = self-paced probing)."""
        if replicas < 1:
            raise ConfigurationError(f"replicas must be >= 1, got {replicas}")
        if num_cpis % replicas != 0:
            raise ConfigurationError(
                f"num_cpis ({num_cpis}) must be divisible by replicas ({replicas})"
            )
        self.params = params
        self.assignment = assignment
        self.replicas = replicas
        self.machine = machine or afrl_paragon()
        self.machine.check_node_budget(replicas * assignment.total_nodes)
        self.num_cpis = num_cpis
        self.input_rate = input_rate
        self.contention = contention

    def run(self) -> ReplicationResult:
        """Simulate all replicas concurrently; aggregate the measurements."""
        from repro.des.backends import get_backend

        nodes = self.assignment.total_nodes
        engine = get_backend(None)
        sim = engine.create_simulator()
        world = World(
            sim,
            self.machine,
            num_ranks=self.replicas * nodes,
            contention=self.contention,
            backend=engine,
        )
        local_cpis = self.num_cpis // self.replicas
        collectors = []
        for replica in range(self.replicas):
            comm = Communicator(
                world, list(range(replica * nodes, (replica + 1) * nodes))
            )
            collector = Collector()
            collectors.append(collector)
            # Build one pipeline's tasks, bound to the replica's ranks.
            pipeline = STAPPipeline(
                self.params,
                self.assignment,
                machine=self.machine,
                mode="modeled",
                num_cpis=local_cpis,
                contention=self.contention,
            )
            tasks = pipeline._build_tasks(collector)
            for local_world_rank, task in tasks.items():
                if task.name == "doppler":
                    if self.input_rate is not None:
                        # Global rate -> each replica sees every R-th CPI.
                        task.input_period = self.replicas / self.input_rate
                        task.input_offset = replica / self.input_rate
                world.spawn(
                    replica * nodes + local_world_rank,
                    STAPPipeline._rank_program(task),
                    name=f"r{replica}:{task.name}[{task.local_rank}]",
                    comm=comm,
                )
        sim.run()

        per_replica = [
            self._aggregate_one(collector, local_cpis) for collector in collectors
        ]
        throughput, latency = self._merge(collectors, local_cpis)
        return ReplicationResult(
            replicas=self.replicas,
            nodes_per_replica=nodes,
            aggregate_throughput=throughput,
            latency=latency,
            per_replica=per_replica,
        )

    def run_measured(self) -> ReplicationResult:
        """Two-phase: probe aggregate throughput, re-run globally paced."""
        probe = self.run()
        paced = ReplicatedSTAPPipeline(
            self.params,
            self.assignment,
            self.replicas,
            machine=self.machine,
            num_cpis=self.num_cpis,
            input_rate=probe.aggregate_throughput,
            contention=self.contention,
        )
        result = paced.run()
        result.aggregate_throughput = probe.aggregate_throughput
        return result

    # -- measurement helpers ---------------------------------------------------
    def _aggregate_one(self, collector: Collector, local_cpis: int) -> PipelineMetrics:
        tasks = {}
        for task_name, timings in collector.timings.items():
            tasks[task_name] = TaskMetrics.aggregate(
                task_name,
                self.assignment.count_of(task_name),
                timings,
                local_cpis,
            )
        lo, hi = steady_state_slice(local_cpis)
        done = [collector.report_done[i] for i in range(lo, hi)]
        starts = [collector.input_start[i] for i in range(lo, hi)]
        throughput = (len(done) - 1) / (done[-1] - done[0]) if len(done) > 1 else float("nan")
        latency = mean(d - s for d, s in zip(done, starts))
        return PipelineMetrics(
            tasks=tasks, measured_throughput=throughput, measured_latency=latency
        )

    def _merge(self, collectors, local_cpis: int) -> tuple[float, float]:
        """Aggregate throughput from the merged (global-order) completions."""
        lo, hi = steady_state_slice(local_cpis)
        completions = sorted(
            collector.report_done[i]
            for collector in collectors
            for i in range(lo, hi)
        )
        if len(completions) > 1 and completions[-1] > completions[0]:
            throughput = (len(completions) - 1) / (completions[-1] - completions[0])
        else:
            throughput = float("nan")
        latency = mean(
            collector.report_done[i] - collector.input_start[i]
            for collector in collectors
            for i in range(lo, hi)
        )
        return throughput, latency
