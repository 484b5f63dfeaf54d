"""Stage graph and replication planning for the process-parallel runtime.

The runtime executes the paper's seven-task decomposition (Figure 4) with
one worker process per stage replica.  :data:`EDGES` is the dataflow
graph; :func:`edge_specs` gives every edge's payload shape and dtype —
the exact arrays the sequential reference produces between kernels, so
shipping them whole keeps the parallel numerics bit-identical.

:class:`StagePlan` maps a paper processor assignment (Table 7 cases and
friends) onto a local worker budget: node counts are scaled down
proportionally (largest-remainder, at least one worker per stage) so a
236-node case 1 keeps its *shape* — hard weights get the lion's share —
at laptop scale.

Routing is deterministic and published here because producers and
consumers must agree on it without communicating: stateless stages own
CPI ``i`` at replica ``i % R``; the stateful weight stages own whole
azimuths (``azimuth % R``), since their recursion state lives per
azimuth.  Determinism makes every (producer replica, consumer replica)
channel a FIFO whose arrival order equals the consumer's processing
order — no reorder buffers, and progress follows by induction on
(topological order, CPI order).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.core.assignment import TASK_NAMES, Assignment
from repro.errors import ConfigurationError
from repro.radar.parameters import STAPParams

#: Stages whose weight recursion state is keyed by azimuth; their
#: replication is capped at the azimuth cycle (a replica per azimuth is
#: the maximum useful parallelism) and their routing is by azimuth.
WEIGHT_STAGES = ("easy_weight", "hard_weight")

#: Dataflow edges: name -> (producer stage, consumer stage).
EDGES: Dict[str, Tuple[str, str]] = {
    "easy_data": ("doppler", "easy_beamform"),
    "hard_data": ("doppler", "hard_beamform"),
    "easy_train": ("doppler", "easy_weight"),
    "hard_train": ("doppler", "hard_weight"),
    "easy_w": ("easy_weight", "easy_beamform"),
    "hard_w": ("hard_weight", "hard_beamform"),
    "easy_y": ("easy_beamform", "pulse_compression"),
    "hard_y": ("hard_beamform", "pulse_compression"),
    "power": ("pulse_compression", "cfar"),
}


def edge_specs(params: STAPParams) -> Dict[str, Tuple[Tuple[int, ...], np.dtype]]:
    """Payload ``(shape, dtype)`` of every edge, from the algorithm shape.

    Shapes and dtypes are exactly what the sequential chain materializes
    between kernels (the Doppler filter emits complex128 regardless of the
    cube dtype; pulse compression emits the params' real dtype).
    """
    ne = params.num_easy_doppler
    nh = params.num_hard_doppler
    J = params.num_channels
    n2 = params.num_staggered_channels
    M = params.num_beams
    K = params.num_ranges
    S = params.num_segments
    c128 = np.dtype(np.complex128)
    return {
        "easy_data": ((ne, n2, K), c128),
        "hard_data": ((nh, n2, K), c128),
        "easy_train": ((ne, params.easy_train_per_cpi, J), c128),
        "hard_train": ((S, nh, params.hard_train_samples, n2), c128),
        "easy_w": ((ne, J, M), c128),
        "hard_w": ((S, nh, n2, M), c128),
        "easy_y": ((ne, M, K), c128),
        "hard_y": ((nh, M, K), c128),
        "power": ((params.num_doppler, M, K), np.dtype(params.real_dtype)),
    }


@dataclass(frozen=True)
class StagePlan:
    """Worker replicas per stage, in :data:`TASK_NAMES` order."""

    counts: Tuple[int, ...]

    def __post_init__(self):
        if len(self.counts) != len(TASK_NAMES):
            raise ConfigurationError(
                f"stage plan needs {len(TASK_NAMES)} counts, got "
                f"{len(self.counts)}"
            )
        for stage, count in zip(TASK_NAMES, self.counts):
            if not isinstance(count, int) or count < 1:
                raise ConfigurationError(
                    f"stage {stage} needs at least one worker, got {count!r}"
                )

    # -- views -------------------------------------------------------------------
    def of(self, stage: str) -> int:
        if stage not in TASK_NAMES:
            raise ConfigurationError(f"unknown stage {stage!r}")
        return self.counts[TASK_NAMES.index(stage)]

    @property
    def total_workers(self) -> int:
        return sum(self.counts)

    def as_dict(self) -> Dict[str, int]:
        return dict(zip(TASK_NAMES, self.counts))

    # -- routing -----------------------------------------------------------------
    def owner_of(self, stage: str, cpi: int, azimuth_cycle: int) -> int:
        """Replica that processes CPI ``cpi`` of ``stage`` (deterministic)."""
        replicas = self.of(stage)
        if stage in WEIGHT_STAGES:
            return (cpi % azimuth_cycle) % replicas
        return cpi % replicas

    def stage_cpis(self, stage: str, replica: int, num_cpis: int,
                   azimuth_cycle: int) -> list[int]:
        """The (increasing) CPI subsequence one replica owns — its whole
        work quota, known up front, so workers terminate by exhaustion
        instead of poison pills (a zero-CPI stream exits immediately)."""
        return [
            i for i in range(num_cpis)
            if self.owner_of(stage, i, azimuth_cycle) == replica
        ]

    # -- constructors ------------------------------------------------------------
    @classmethod
    def uniform(cls, replicas: int = 1,
                azimuth_cycle: int = 1) -> "StagePlan":
        """One plan entry per stage; weight stages capped at the cycle."""
        counts = tuple(
            min(replicas, azimuth_cycle) if stage in WEIGHT_STAGES else replicas
            for stage in TASK_NAMES
        )
        return cls(counts)

    @classmethod
    def from_assignment(
        cls,
        assignment: Assignment,
        workers: Optional[int] = None,
        azimuth_cycle: int = 1,
    ) -> "StagePlan":
        """Scale a paper assignment onto a local worker budget.

        Largest-remainder proportional scaling with a floor of one worker
        per stage; weight-stage replication never exceeds the azimuth
        cycle (extra replicas would own zero azimuths).  ``workers`` below
        the seven-stage minimum is raised to it.
        """
        node_counts = assignment.counts()
        budget = max(int(workers) if workers else len(TASK_NAMES),
                     len(TASK_NAMES))
        total = sum(node_counts)
        raw = [budget * c / total for c in node_counts]
        caps = [
            max(1, azimuth_cycle) if stage in WEIGHT_STAGES else budget
            for stage in TASK_NAMES
        ]
        counts = [min(max(1, math.floor(r)), cap)
                  for r, cap in zip(raw, caps)]
        # Hand out any remaining budget by descending fractional remainder
        # (index breaks ties, for determinism), respecting the caps.
        order = sorted(range(len(TASK_NAMES)),
                       key=lambda i: (-(raw[i] - math.floor(raw[i])), i))
        while sum(counts) < budget:
            for i in order:
                if sum(counts) >= budget:
                    break
                if counts[i] < caps[i]:
                    counts[i] += 1
            else:
                break  # every stage at its cap
            if all(counts[i] >= caps[i] for i in range(len(counts))):
                break
        # The one-worker floor can overshoot a tight budget (many tasks
        # scaled below one); shave the largest stages back down.
        while sum(counts) > budget:
            i = max(range(len(counts)), key=lambda j: (counts[j], -j))
            if counts[i] <= 1:
                break
            counts[i] -= 1
        return cls(tuple(counts))
