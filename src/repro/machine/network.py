"""Network simulation: message transfers over the mesh with contention.

Three contention fidelities are offered (``ContentionMode``):

``NONE``
    Pure latency model — every transfer takes the analytic LogGP time.
``ENDPOINT`` (default)
    Each node owns an *injection* port and an *ejection* port (DES
    resources).  A message holds the source's injection port and the
    destination's ejection port for its serialization time.  This captures
    the effect the paper calls out in §7.2 — "contention at the sending and
    receiving nodes is reduced" as task node counts grow — at a cost of only
    a few DES events per message.
``LINKS``
    Additionally holds every link of the XY route for the serialization
    time (wormhole-style pipelining is approximated by holding all links
    simultaneously rather than store-and-forward).  Useful for studies of
    route interference; a message costs one more event per route link.

:class:`Network` is the reference implementation: resources and callback
chains, the checker the plan-lowered network
(:class:`~repro.des.backends.LoweredNetwork`) is compared against.
"""

from __future__ import annotations

import enum
from typing import Optional

from repro.des import Simulator, Resource
from repro.des.event import Event
from repro.errors import ConfigurationError, MachineError
from repro.machine.cost_model import NetworkCostModel
from repro.machine.mesh import Mesh2D, Link


class ContentionMode(enum.Enum):
    """How much sharing of the interconnect to simulate."""

    NONE = "none"
    ENDPOINT = "endpoint"
    LINKS = "links"


class Network:
    """Simulated interconnect bound to a :class:`Simulator` and a mesh."""

    def __init__(
        self,
        sim: Simulator,
        mesh: Mesh2D,
        cost_model: Optional[NetworkCostModel] = None,
        contention: ContentionMode | str = ContentionMode.ENDPOINT,
    ):
        self.sim = sim
        self.mesh = mesh
        self.cost = cost_model or NetworkCostModel()
        self.contention = ContentionMode(contention)
        self._inject: dict[int, Resource] = {}
        self._eject: dict[int, Resource] = {}
        self._links: dict[Link, Resource] = {}
        #: Counters for diagnostics / tests.
        self.messages_sent = 0
        self.bytes_sent = 0
        #: Delivery function bound by :class:`~repro.mpi.communicator.World`
        #: (:meth:`bind_deliver`); called as ``deliver(pending, recv_req)``.
        self._deliver = None

    def bind_deliver(self, deliver) -> None:
        """Install the function that completes a transferred message."""
        self._deliver = deliver

    # -- resource lookup (lazy: a 321-node mesh has ~2500 links) --------------
    def _injection_port(self, node: int) -> Resource:
        res = self._inject.get(node)
        if res is None:
            res = self._inject[node] = Resource(self.sim, 1, name=f"inject[{node}]")
        return res

    def _ejection_port(self, node: int) -> Resource:
        res = self._eject.get(node)
        if res is None:
            res = self._eject[node] = Resource(self.sim, 1, name=f"eject[{node}]")
        return res

    def _link(self, link: Link) -> Resource:
        res = self._links.get(link)
        if res is None:
            res = self._links[link] = Resource(self.sim, 1, name=f"link[{link.src}->{link.dst}]")
        return res

    # -- transfers ------------------------------------------------------------
    def transfer_matched(self, src: int, dst: int, pending, recv_req) -> None:
        """Move a matched message from node ``src`` to node ``dst``.

        The one entry the matcher uses: when the payload arrives, the bound
        delivery function completes ``pending``'s send and ``recv_req``.
        Here that is a callback on :meth:`transfer`'s done event; the
        lowered network delivers from its slot record instead, with the
        same schedule.
        """
        deliver = self._deliver
        done = self.transfer(src, dst, pending.message.nbytes)
        done.callbacks.append(lambda _ev: deliver(pending, recv_req))

    def transfer(self, src: int, dst: int, nbytes: int) -> Event:
        """Start a message transfer; returns an event firing at delivery.

        ``src == dst`` models an on-node copy: no startup, just a contiguous
        copy pass at link bandwidth (generous — self-sends are rare).

        Transfers are driven by a callback chain rather than a DES process:
        a paper-scale run makes ~10^5 transfers, and the per-message
        generator machinery (process object, resume steps, completion
        event) used to dominate simulation wall time.  The chain schedules
        exactly the same events at the same priorities as the old process
        version, so virtual timestamps are bit-identical.
        """
        if nbytes < 0:
            raise MachineError(f"negative message size: {nbytes}")
        self.messages_sent += 1
        self.bytes_sent += nbytes
        sim = self.sim
        # Constant labels: formatting per-transfer names costs real wall
        # time at ~10^5 transfers per run and names are diagnostic only.
        done = Event(sim, name="xfer")
        # Defer the first action by one zero-delay event, exactly as
        # spawning a process did: same-timestamp operations posted earlier
        # keep their place in the schedule.  A recycled timeout serves as
        # the deferral (same priority and sequence cost as a plain event).
        start = sim.pooled_timeout(0.0, name="net")
        start.callbacks.append(
            lambda _ev: self._begin_transfer(src, dst, nbytes, done)
        )
        return done

    def _begin_transfer(self, src: int, dst: int, nbytes: int, done: Event) -> None:
        sim = self.sim
        if src == dst:
            delay = sim.pooled_timeout(self.cost.per_byte_s * nbytes)
            delay.callbacks.append(lambda _ev: done.succeed())
            return

        if self.contention is ContentionMode.NONE:
            hops = self.mesh.hop_distance(src, dst)
            delay = sim.pooled_timeout(self.cost.point_to_point(nbytes, hops))
            delay.callbacks.append(lambda _ev: done.succeed())
            return

        holds = [self._injection_port(src), self._ejection_port(dst)]
        if self.contention is ContentionMode.LINKS:
            holds.extend(self._link(l) for l in self.mesh.route(src, dst))
        # Acquire in a canonical order (by resource name) so that two
        # messages over overlapping routes cannot deadlock.
        holds.sort(key=lambda r: r.name)
        hops = self.mesh.hop_distance(src, dst)
        header = self.cost.startup_s + self.cost.per_hop_s * hops
        occupancy = self.cost.occupancy(nbytes)
        hold_time = header + occupancy
        index = 0

        def acquire_next(_ev) -> None:
            nonlocal index
            if index < len(holds):
                res = holds[index]
                index += 1
                res.request().callbacks.append(acquire_next)
                return
            # Header latency + serialization while holding the path.
            delay = sim.pooled_timeout(hold_time)
            delay.callbacks.append(finish)

        def finish(_ev) -> None:
            for res in reversed(holds):
                res.release()
            done.succeed()

        acquire_next(None)

    def attach_trace(self, sink) -> None:
        """Feed per-resource holds to a :class:`~repro.obs.TraceSink`.

        Only the lowered transfer path records link holds; the reference
        network is a plain checker and refuses rather than run untraced.
        """
        raise ConfigurationError(
            "network tracing needs the lowered transfer path, but this run "
            f"uses the reference network (backend={self.sim.backend!r}); "
            "trace with the default lowered backend"
        )

    # -- diagnostics ------------------------------------------------------------
    def endpoint_wait_time(self, node: int) -> float:
        """Cumulative queueing time observed at a node's two ports."""
        total = 0.0
        if node in self._inject:
            total += self._inject[node].total_wait_time
        if node in self._eject:
            total += self._eject[node].total_wait_time
        return total
