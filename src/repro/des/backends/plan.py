"""EnginePlan: per-run lowered tables for the simulator hot path.

The lowered backend follows the PyOP2 pattern: everything the hot loop
would otherwise recompute per event — mesh hop distances, wormhole header
latencies, port identities, match-key encodings — is computed *once* per
run into preallocated numpy tables, and the event loop then runs off plain
array indexing.

The plan mirrors :class:`repro.stap.plan.KernelPlan` one layer down: where
the kernel plan captures CPI-invariant numeric factors, the engine plan
captures run-invariant *simulation* factors.

Bit-identity contract
---------------------
Every float in these tables is produced by exactly the IEEE-754 operations
the reference code performs (``startup + per_hop * hops`` elementwise, no
reassociation), so a lowered transfer computes the same timestamps to the
last ulp.  The golden and hypothesis backend tests pin this.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.machine.cost_model import NetworkCostModel
from repro.machine.mesh import Mesh2D
from repro.machine.network import ContentionMode

#: Match keys pack ``tag`` into the low bits of one integer; tags must stay
#: below this bound for the packed matcher (the pipeline's tags are small
#: CPI/edge indices, far below it).  Larger tags are rejected with a clear
#: error; :class:`~repro.core.pipeline.STAPPipeline` refuses a run whose
#: last edge tag would reach the bound before simulating anything.
TAG_BITS = 22
TAG_LIMIT = 1 << TAG_BITS


@dataclass
class EnginePlan:
    """Run-invariant tables driving the lowered simulator core.

    Built once per :class:`~repro.mpi.communicator.World` by the selected
    backend; shared read-only by the network scheduler and the matcher.
    """

    backend: str
    contention: ContentionMode
    num_nodes: int
    #: Ports are numbered ``eject(node) = 2*node``, ``inject(node) = 2*node+1``;
    #: under LINKS contention every directed mesh link follows (see
    #: ``link_ports``).
    num_ports: int
    #: (N, N) int32 Manhattan hop counts between node pairs.
    hops: np.ndarray
    #: (N, N) float64 wormhole header latency ``startup + per_hop * hops``.
    header_s: np.ndarray
    #: Cost-model scalars (Python floats, for exact scalar arithmetic).
    startup_s: float
    per_byte_s: float
    per_hop_s: float
    #: Wall-clock seconds spent building the tables (reported by perf).
    build_seconds: float = 0.0
    #: Whether the matcher should pack (context, dst, src, tag) into ints.
    pack_match_keys: bool = True
    #: Memo of per-size port occupancy times (nbytes -> seconds), shared by
    #: the network so repeated message sizes cost one dict probe.
    occupancy_memo: dict = field(default_factory=dict)
    #: LINKS contention only: directed mesh link ``(src, dst)`` -> port,
    #: numbered from ``2*num_nodes`` in :meth:`Mesh2D.all_links` order.
    link_ports: dict = field(default_factory=dict)

    @classmethod
    def build(
        cls,
        mesh: Mesh2D,
        cost: NetworkCostModel,
        contention: ContentionMode | str = ContentionMode.ENDPOINT,
        backend: str = "lowered",
    ) -> "EnginePlan":
        """Flatten mesh topology and cost model into dense tables.

        The tables are O(N^2) in mesh nodes (a 32x32 hypothetical machine
        costs ~12 MiB); they are built vectorized in a few milliseconds.
        """
        t0 = time.perf_counter()
        contention = ContentionMode(contention)
        n = mesh.num_nodes
        ids = np.arange(n)
        x = ids % mesh.width
        y = ids // mesh.width
        # Manhattan distance, exactly Mesh2D.hop_distance elementwise.
        hops = (np.abs(x[:, None] - x[None, :]) + np.abs(y[:, None] - y[None, :])).astype(
            np.int32
        )
        # Exactly Network._begin_transfer's ``startup_s + per_hop_s * hops``:
        # one float64 multiply and one add per element, no reassociation.
        header = cost.startup_s + cost.per_hop_s * hops.astype(np.float64)
        link_ports = {}
        if contention is ContentionMode.LINKS:
            for link in mesh.all_links():
                link_ports[link.src, link.dst] = 2 * n + len(link_ports)
        return cls(
            backend=backend,
            contention=contention,
            num_nodes=n,
            num_ports=2 * n + len(link_ports),
            hops=np.ascontiguousarray(hops),
            header_s=np.ascontiguousarray(header),
            startup_s=cost.startup_s,
            per_byte_s=cost.per_byte_s,
            per_hop_s=cost.per_hop_s,
            build_seconds=time.perf_counter() - t0,
            link_ports=link_ports,
        )

    # -- port numbering ---------------------------------------------------------
    @staticmethod
    def eject_port(node: int) -> int:
        return 2 * node

    @staticmethod
    def inject_port(node: int) -> int:
        return 2 * node + 1

    def port_names(self) -> list[str]:
        """Every port's name, indexed by port: exactly the reference
        network's ``Resource`` names (``eject[n]``, ``inject[n]``,
        ``link[a->b]``), which order its acquires and label its trace."""
        names = [
            f"inject[{port // 2}]" if port % 2 else f"eject[{port // 2}]"
            for port in range(2 * self.num_nodes)
        ]
        names.extend(f"link[{a}->{b}]" for a, b in self.link_ports)
        return names
