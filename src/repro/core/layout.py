"""PipelineLayout: partitions, plans and rank mapping for one configuration.

Given the algorithm shape (:class:`STAPParams`) and a processor
:class:`Assignment`, the layout precomputes everything static about one
pipeline instance:

* the data partition of every task (K-axis for Doppler, bin-axis elsewhere);
* the nine :class:`~repro.core.redistribution.EdgePlan` objects;
* the world-rank numbering (tasks occupy contiguous rank blocks in pipeline
  order, which also places them on contiguous mesh nodes).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

from repro.core.assignment import Assignment, TASK_NAMES
from repro.core.partition import BlockPartition, HardUnitPartition
from repro.core.redistribution import (
    EDGE_TOPOLOGY,
    EdgePlan,
    plan_bins_edge,
    plan_dop_to_bf,
    plan_dop_to_easy_weight,
    plan_dop_to_hard_weight,
    plan_hard_weight_to_bf,
)
from repro.errors import ConfigurationError
from repro.radar.parameters import STAPParams


@dataclass
class PipelineLayout:
    """All static structure of one pipeline configuration.

    ``collect_training`` ablates the paper's *data collection* optimization
    (Figure 6b): when False, the Doppler task ships its entire K-slice to
    the weight tasks instead of only the selected training cells — "data
    collection is performed to avoid sending redundant data and hence
    reduces the communication costs" is the claim this switch tests.
    The payloads in functional mode are unchanged (the extra cells are
    never used); only the modeled byte counts and pack/unpack stride class
    change.
    """

    params: STAPParams
    assignment: Assignment
    collect_training: bool = True

    def __post_init__(self):
        self.assignment.validate_for(self.params)

    # -- partitions ------------------------------------------------------------
    @cached_property
    def k_partition(self) -> BlockPartition:
        """Doppler task: K range cells over P0 processors (Figure 5)."""
        return BlockPartition.of_range(
            self.params.num_ranges, self.assignment.doppler
        )

    @cached_property
    def easy_weight_bins(self) -> BlockPartition:
        """Easy weight task: easy Doppler bins over P1 (Figure 7)."""
        return BlockPartition.of_ids(
            self.params.easy_bins, self.assignment.easy_weight
        )

    @cached_property
    def hard_weight_units(self) -> HardUnitPartition:
        """Hard weight task: (segment, bin) units over P2.

        The paper's case 1 gives this task 112 nodes for 56 hard bins —
        feasible because the ``6 * N_hard`` per-(segment, bin) recursive
        updates are independent (Section 5.2).
        """
        return HardUnitPartition(
            bin_ids=tuple(int(b) for b in self.params.hard_bins),
            num_segments=self.params.num_segments,
            parts=self.assignment.hard_weight,
        )

    @cached_property
    def easy_bf_bins(self) -> BlockPartition:
        """Easy beamforming: easy bins over P3."""
        return BlockPartition.of_ids(
            self.params.easy_bins, self.assignment.easy_beamform
        )

    @cached_property
    def hard_bf_bins(self) -> BlockPartition:
        """Hard beamforming: hard bins over P4."""
        return BlockPartition.of_ids(
            self.params.hard_bins, self.assignment.hard_beamform
        )

    @cached_property
    def pc_bins(self) -> BlockPartition:
        """Pulse compression: all N bins over P5 (Figure 9)."""
        return BlockPartition.of_range(
            self.params.num_doppler, self.assignment.pulse_compression
        )

    @cached_property
    def cfar_bins(self) -> BlockPartition:
        """CFAR: all N bins over P6."""
        return BlockPartition.of_range(self.params.num_doppler, self.assignment.cfar)

    def partition_of(self, task: str) -> BlockPartition:
        """The data partition of a task by name."""
        table = {
            "doppler": self.k_partition,
            "easy_weight": self.easy_weight_bins,
            "hard_weight": self.hard_weight_units,
            "easy_beamform": self.easy_bf_bins,
            "hard_beamform": self.hard_bf_bins,
            "pulse_compression": self.pc_bins,
            "cfar": self.cfar_bins,
        }
        try:
            return table[task]
        except KeyError:
            raise ConfigurationError(f"unknown task {task!r}") from None

    # -- plans -------------------------------------------------------------------
    @cached_property
    def plans(self) -> dict[str, EdgePlan]:
        """Edge name -> redistribution plan.

        Plans depend only on (params, per-task node counts, the
        data-collection flag), so they are shared process-wide through a
        keyed cache: sweeps that simulate many pipelines over the same
        configuration (the optimizer searches, ``run_measured``'s paced
        second phase, the benchmark tables) stop rebuilding the
        O(P_src x P_dst) message lists from scratch.  Plans are immutable
        by convention — tasks only read them.
        """
        return _shared_plans(
            self.params, self.assignment.counts(), self.collect_training
        )

    def _build_plans(self) -> dict[str, EdgePlan]:
        """Construct the nine edge plans (cache miss path)."""
        params = self.params
        item = params.complex_itemsize
        real_item = 4 if params.real_dtype == "float32" else 8
        M, J, K = params.num_beams, params.num_channels, params.num_ranges
        plans = {
            "dop_to_easy_weight": plan_dop_to_easy_weight(
                params,
                self.k_partition,
                self.easy_weight_bins,
                collect=self.collect_training,
            ),
            "dop_to_hard_weight": plan_dop_to_hard_weight(
                params,
                self.k_partition,
                self.hard_weight_units,
                collect=self.collect_training,
            ),
            "dop_to_easy_bf": plan_dop_to_bf(
                params, self.k_partition, self.easy_bf_bins, hard=False
            ),
            "dop_to_hard_bf": plan_dop_to_bf(
                params, self.k_partition, self.hard_bf_bins, hard=True
            ),
            "easy_weight_to_bf": plan_bins_edge(
                "easy_weight_to_bf",
                "easy_weight",
                "easy_beamform",
                self.easy_weight_bins,
                self.easy_bf_bins,
                bytes_per_bin=J * M * item,
            ),
            "hard_weight_to_bf": plan_hard_weight_to_bf(
                params, self.hard_weight_units, self.hard_bf_bins
            ),
            "easy_bf_to_pc": plan_bins_edge(
                "easy_bf_to_pc",
                "easy_beamform",
                "pulse_compression",
                self.easy_bf_bins,
                self.pc_bins,
                bytes_per_bin=M * K * item,
            ),
            "hard_bf_to_pc": plan_bins_edge(
                "hard_bf_to_pc",
                "hard_beamform",
                "pulse_compression",
                self.hard_bf_bins,
                self.pc_bins,
                bytes_per_bin=M * K * item,
            ),
            "pc_to_cfar": plan_bins_edge(
                "pc_to_cfar",
                "pulse_compression",
                "cfar",
                self.pc_bins,
                self.cfar_bins,
                bytes_per_bin=M * K * real_item,
            ),
        }
        return plans

    def plan(self, edge_name: str) -> EdgePlan:
        """Redistribution plan for one edge."""
        try:
            return self.plans[edge_name]
        except KeyError:
            raise ConfigurationError(f"unknown edge {edge_name!r}") from None

    def in_edges(self, task: str) -> list[str]:
        """Edges arriving at a task, in topology order."""
        return [name for name, _src, dst in EDGE_TOPOLOGY if dst == task]

    def out_edges(self, task: str) -> list[str]:
        """Edges leaving a task, in topology order."""
        return [name for name, src, _dst in EDGE_TOPOLOGY if src == task]

    # -- rank mapping --------------------------------------------------------------
    @property
    def total_ranks(self) -> int:
        return self.assignment.total_nodes

    def world_rank(self, task: str, local_rank: int) -> int:
        """World rank of ``local_rank`` within ``task``."""
        offsets = self.assignment.rank_offsets()
        if task in offsets:
            count = getattr(self.assignment, task)
        else:
            count = self.assignment.count_of(task)  # raises AssignmentError
        if not (0 <= local_rank < count):
            raise ConfigurationError(
                f"{task} has {count} ranks; local rank {local_rank} out of range"
            )
        return offsets[task] + local_rank

    def task_and_local(self, world_rank: int) -> tuple[str, int]:
        """(task, local rank) of a world rank."""
        task = self.assignment.task_of_rank(world_rank)
        return task, world_rank - self.assignment.rank_offsets()[task]

    # -- memory feasibility -----------------------------------------------------
    def peak_buffer_bytes(self, task: str, local_rank: int) -> int:
        """Rough peak working-set bytes of one rank (double-buffered).

        Counts the rank's input assembly buffers, its principal local
        arrays (staggered slice / recursion state / output block), and the
        outgoing messages — times two for double buffering.  Used against
        the Paragon's 64 MiB per-node memory.
        """
        params = self.params
        item = params.complex_itemsize
        inputs = sum(
            self.plan(edge).recv_bytes_of(local_rank) for edge in self.in_edges(task)
        )
        outputs = sum(
            self.plan(edge).send_bytes_of(local_rank) for edge in self.out_edges(task)
        )
        if task == "doppler":
            lo, hi = self.k_partition.bounds(local_rank)
            local = (
                (hi - lo)
                * params.num_staggered_channels
                * params.num_pulses
                * item
            ) + self.sensor_bytes_of(local_rank)
        elif task == "easy_weight":
            bins = self.easy_weight_bins.size_of(local_rank)
            # 3-CPI history + weights.
            local = bins * params.num_channels * item * (
                3 * params.easy_train_per_cpi + params.num_beams
            )
        elif task == "hard_weight":
            units = self.hard_weight_units.size_of(local_rank)
            n2 = params.num_staggered_channels
            local = units * n2 * item * (n2 + params.hard_train_samples + params.num_beams)
        elif task in ("easy_beamform", "hard_beamform"):
            partition = self.partition_of(task)
            channels = (
                params.num_channels
                if task == "easy_beamform"
                else params.num_staggered_channels
            )
            bins = partition.size_of(local_rank)
            local = bins * (channels + params.num_beams) * params.num_ranges * item
        else:  # pulse_compression, cfar
            bins = self.partition_of(task).size_of(local_rank)
            local = bins * params.num_beams * params.num_ranges * item
        return 2 * (inputs + outputs) + local

    def validate_memory(self, memory_bytes: int) -> None:
        """Raise if any rank's working set exceeds the per-node memory."""
        for task in self.assignment.rank_offsets():
            for local_rank in range(self.assignment.count_of(task)):
                need = self.peak_buffer_bytes(task, local_rank)
                if need > memory_bytes:
                    raise ConfigurationError(
                        f"{task} rank {local_rank} needs ~{need / 2**20:.1f} MiB "
                        f"but nodes have {memory_bytes / 2**20:.0f} MiB"
                    )

    # -- sensor input ---------------------------------------------------------------
    def sensor_bytes_of(self, doppler_rank: int) -> int:
        """Raw-cube bytes delivered to one Doppler rank per CPI."""
        lo, hi = self.k_partition.bounds(doppler_rank)
        return (
            (hi - lo)
            * self.params.num_channels
            * self.params.num_pulses
            * self.params.complex_itemsize
        )


@lru_cache(maxsize=128)
def _shared_plans(
    params: STAPParams, counts: tuple[int, ...], collect_training: bool
) -> dict[str, EdgePlan]:
    """Process-wide edge-plan cache, keyed by everything plans depend on."""
    layout = PipelineLayout(
        params,
        Assignment(*counts, name="plan-cache"),
        collect_training=collect_training,
    )
    return layout._build_plans()
